import contextlib
import io
import json

import numpy as np
import pytest

from krausblocks import superoperator_distance
from krausblocks.cli import _PARSER, _tol, run_command
from krausblocks.linalg import Tolerances
from krausblocks.serialize import (
    channel_to_document,
    dumps_report,
    matrix_to_wire,
    measurement_to_document,
    operator_to_document,
    parse_channel,
    parse_measurement,
)
from krausblocks import (
    channel,
    cli,
    depolarizing_channel,
    dephasing_channel,
    fixed_points,
    measurement,
)

from tests.test_measurement import INCONSISTENT
from tests.util import (
    computational_measurement,
    count_calls,
    coupled_blocks,
    random_density,
    rotated_direct_sum,
)


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def depolarizing_doc(tmp_path):
    code, out, _ = run(["gen", "--kind", "depolarizing", "--dim", "2", "--p", "0.5"])
    assert code == 0
    return write(tmp_path, "dep.json", out)


class TestGen:
    def test_round_trip_superoperator(self, depolarizing_doc):
        ch = parse_channel(open(depolarizing_doc).read())
        assert superoperator_distance(ch, depolarizing_channel(2, 0.5)) <= 1e-12

    def test_document_fields(self, depolarizing_doc):
        doc = json.loads(open(depolarizing_doc).read())
        assert doc["schema_version"] == "1"
        assert doc["dim"] == 2
        assert len(doc["kraus"]) == 4
        assert doc["metadata"]["name"] == "depolarizing"
        assert "tolerances" in doc["metadata"]

    def test_gen_needs_p(self):
        code, out, _ = run(["gen", "--kind", "depolarizing", "--dim", "2"])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidParameter"

    def test_needs_unitary(self):
        code, out, err = run(["gen", "--kind", "unitary", "--dim", "2"])
        assert code == 2
        assert strict_json(out)["error"]["type"] == "InvalidParameter"
        assert "Traceback" not in err


class TestValidate:
    def test_valid_channel(self, depolarizing_doc):
        code, out, _ = run(["validate", depolarizing_doc])
        assert code == 0
        rep = json.loads(out)
        assert rep["validation"]["is_unital"] is True
        assert rep["validation"]["is_trace_preserving"] is True
        assert rep["schema_version"] == "1"
        assert set(rep["tolerances"]) == {
            "hermitian", "nullspace", "eigencluster", "residual", "optimizer"
        }

    def test_non_unital_exit_1(self, tmp_path):
        g = 0.3
        k0 = np.array([[1, 0], [0, np.sqrt(1 - g)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex)
        doc = {
            "schema_version": "1",
            "dim": 2,
            "kraus": [matrix_to_wire(k0), matrix_to_wire(k1)],
        }
        path = write(tmp_path, "ad.json", json.dumps(doc))
        code, out, _ = run(["validate", path])
        assert code == 1
        rep = json.loads(out)
        assert rep["validation"]["is_unital"] is False
        assert rep["validation"]["tp_residual"] <= 1e-12
        assert abs(rep["validation"]["unital_residual"] - g) < 1e-12

    def test_malformed_json_exit_2(self, tmp_path):
        path = write(tmp_path, "bad.json", "{not json")
        code, out, _ = run(["validate", path])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ParseError"

    def test_wrong_entry_count_exit_2(self, tmp_path):
        doc = {"schema_version": "1", "dim": 2, "kraus": [[[1.0, 0.0]]]}
        path = write(tmp_path, "short.json", json.dumps(doc))
        code, out, _ = run(["validate", path])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "ParseError"
        assert "kraus[0]" in err["path"]

    def test_missing_file_exit_2(self):
        code, out, _ = run(["validate", "/nonexistent/ch.json"])
        assert code == 2

    def test_tolerance_flag_changes_verdict(self, tmp_path):
        # a channel with 1e-7-level defects fails at the default residual
        # tolerance but passes when the knob is loosened
        ch = depolarizing_channel(2, 0.5)
        noisy = [np.array(a) for a in ch.kraus]
        noisy[0] = noisy[0] + 1e-7 * np.eye(2)
        doc = {
            "schema_version": "1",
            "dim": 2,
            "kraus": [matrix_to_wire(a) for a in noisy],
        }
        path = write(tmp_path, "noisy.json", json.dumps(doc))
        code_strict, _, _ = run(["validate", path])
        code_loose, out, _ = run(["validate", path, "--tol-residual", "1e-5"])
        assert code_strict == 1
        assert code_loose == 0
        assert json.loads(out)["tolerances"]["residual"] == 1e-5


class TestDecompose:
    def test_rotated_blocks(self, tmp_path):
        ch, _, _ = rotated_direct_sum((2, 3), seed=19)
        path = write(tmp_path, "ch.json", dumps_report(channel_to_document(ch)))
        code, out, _ = run(["decompose", path, "--seed", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["decomposition"]["block_dims"] == [2, 3]
        assert rep["commutant_count"] == 2
        assert rep["decomposition"]["certificates"] == [1, 1]
        # basis matrices have the right shapes
        for block in rep["decomposition"]["blocks"]:
            assert len(block["basis"]) == 5 * block["dim"]

    def test_split_decision(self, tmp_path):
        ch, _, _ = rotated_direct_sum((2, 3), seed=19)
        path = write(tmp_path, "ch.json", dumps_report(channel_to_document(ch)))
        code, out, _ = run(["decompose", path])
        split = json.loads(out)["split"]
        assert code == 0 and split["method"] == "spin"
        assert split["closure_margin"] >= 100 and split["eigengap_margin"] > 1
        # near-reducible: the refined path decides, and has no margins to report
        near = write(tmp_path, "near.json", dumps_report(channel_to_document(coupled_blocks(1e-7))))
        code, out, _ = run(["fixed-states", near])
        rep = json.loads(out)
        assert code == 0 and rep["commutant_count"] == 1
        assert rep["split"] == {"method": "refined", "closure_margin": None, "eigengap_margin": None}

    def test_byte_identical_reports(self, depolarizing_doc):
        code1, out1, _ = run(["decompose", depolarizing_doc, "--seed", "3"])
        code2, out2, _ = run(["decompose", depolarizing_doc, "--seed", "3"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_tolerance_failure_exit_3(self, tmp_path):
        path = write(tmp_path, "ch.json", dumps_report(channel_to_document(coupled_blocks(3e-9))))
        code, out, _ = run(["decompose", path])
        assert code == 3
        assert json.loads(out)["error"]["type"] == "ToleranceFailure"


class TestOneCommutantSolve:
    @pytest.mark.parametrize("dims", [(1, 2, 3), (6,)])
    @pytest.mark.parametrize(
        "verb",
        [
            ["decompose"],
            ["fixed-states"],
            ["restrict", "--block", "0"],
            ["capacity", "--quantity", "smin", "--restarts", "1"],
        ],
        ids=lambda v: v[0],
    )
    def test_once_per_invocation(self, tmp_path, monkeypatch, dims, verb):
        ch, _, _ = rotated_direct_sum(dims, seed=21)
        path = write(tmp_path, "ch.json", dumps_report(channel_to_document(ch)))
        calls = count_calls(monkeypatch, fixed_points, "commutant_basis")
        code, out, _ = run([verb[0], path, *verb[1:]])
        assert code == 0
        assert len(calls) == 0  # the spin path counts the commutant without solving it
        if verb[0] in ("decompose", "fixed-states"):
            assert json.loads(out)["commutant_count"] == len(dims)

    def test_once_per_match_seed(self, tmp_path, monkeypatch):
        ch, _, _ = rotated_direct_sum((1, 2, 3), seed=21)
        path = write(tmp_path, "ch.json", dumps_report(channel_to_document(ch)))
        calls = count_calls(monkeypatch, fixed_points, "commutant_basis")
        code, _, _ = run(["match", path, "--seeds", "1", "2"])
        assert code == 0
        assert len(calls) == 0

    def test_degenerate_state_solves_nothing(self, tmp_path, monkeypatch):
        # the state is projected one Wedderburn component at a time
        from krausblocks import identity_channel

        path = write(tmp_path, "id.json", dumps_report(channel_to_document(identity_channel(2))))
        rho = random_density(2, np.random.default_rng(4))
        spath = write(tmp_path, "rho.json", dumps_report(operator_to_document(rho)))
        calls = count_calls(monkeypatch, fixed_points, "commutant_basis")
        supers = count_calls(monkeypatch, channel.KrausChannel, "superoperator_matrix")
        code, out, _ = run(["fixed-states", path, "--state", spath])
        assert code == 0
        rep = json.loads(out)["classification"]
        assert rep["type"] == "degenerate"
        assert calls == [] and supers == []


class TestOneValidation:
    @pytest.mark.parametrize("unital", [True, False])
    def test_once_per_decompose(self, tmp_path, monkeypatch, unital):
        ch, _, _ = rotated_direct_sum((1, 2, 3), seed=21)
        ops = [np.array(a) for a in ch.kraus]
        if not unital:
            ops[0] = ops[0] + 1e-6 * np.eye(6)
        doc = {"schema_version": "1", "dim": 6, "kraus": [matrix_to_wire(a) for a in ops]}
        path = write(tmp_path, "ch.json", json.dumps(doc))
        calls = count_calls(monkeypatch, channel, "validate_kraus")
        code, out, _ = run(["decompose", path])
        assert len(calls) == 1
        rep = json.loads(out)
        if unital:
            assert code == 0
            assert rep["validation"]["is_unital"] is True
        else:
            assert code == 1
            assert rep["error"]["type"] == "ValidationError"
            assert rep["error"]["validation"]["unital_residual"] > 1e-7


class TestNumericalFailure:
    @pytest.mark.parametrize("error", [MemoryError, np.linalg.LinAlgError])
    def test_exit_3_with_report(self, monkeypatch, depolarizing_doc, error):
        from krausblocks import decomposition

        def fail(*args, **kwargs):
            raise error("split failed")

        monkeypatch.setattr(decomposition, "_spin_split", fail)
        code, out, err = run(["decompose", depolarizing_doc])
        assert code == 3
        rep = json.loads(out)
        assert rep["command"] == "decompose"
        assert rep["error"] == {"type": error.__name__, "message": "split failed"}
        assert "Traceback" not in err


def strict_json(text):
    """Parse a report as standard JSON: NaN and Infinity tokens are rejected."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class TestNonFiniteArguments:
    @pytest.mark.parametrize(
        "kind", [["dephasing"], ["random_unital", "--seed", "0"]], ids=lambda k: k[0]
    )
    def test_alpha_nan(self, tmp_path, kind):
        code, doc, _ = run(["gen", "--kind", kind[0], "--dim", "3", *kind[1:]])
        assert code == 0
        path = write(tmp_path, "ch.json", doc)
        code, out, err = run(["capacity", path, "--quantity", "smin", "--alpha", "nan"])
        assert code == 2
        assert strict_json(out)["error"]["type"] == "InvalidAlpha"
        assert "Traceback" not in err

    @pytest.mark.parametrize("alpha", ["0.5", "inf"])
    def test_invalid_alpha_rejected_before_solve(self, tmp_path, monkeypatch, alpha):
        code, doc, _ = run(["gen", "--kind", "random_unital", "--dim", "4", "--seed", "0"])
        path = write(tmp_path, "ch.json", doc)
        calls = count_calls(monkeypatch, fixed_points, "commutant_basis")
        code, out, _ = run(["capacity", path, "--quantity", "smin", "--alpha", alpha])
        assert code == 2
        assert strict_json(out)["error"]["type"] == "InvalidAlpha"
        assert len(calls) == 0

    def test_combine_value_nan(self):
        code, out, _ = run(["capacity", "--quantity", "combine", "--values", "1", "nan"])
        assert code == 2
        assert strict_json(out)["error"]["type"] == "InvalidParameter"

    def test_tolerance_inf(self, depolarizing_doc):
        code, out, _ = run(["decompose", depolarizing_doc, "--tol-residual", "inf"])
        assert code == 2
        assert strict_json(out)["error"]["type"] == "ValueError"


class TestArgumentRanges:
    """Out-of-range integer arguments exit 2 with an InvalidParameter report
    before any document is read, so no commutant is solved."""

    @pytest.fixture
    def channel_doc(self, tmp_path):
        code, doc, _ = run(["gen", "--kind", "random_unital", "--dim", "3"])
        assert code == 0
        return write(tmp_path, "ch.json", doc)

    @pytest.mark.parametrize(
        "args",
        [
            ["decompose", "CH", "--seed", "-1"],
            ["restrict", "CH", "--block", "0", "--seed", "-1"],
            ["fixed-states", "CH", "--seed", "-1"],
            ["capacity", "CH", "--quantity", "smin", "--seed", "-1"],
            ["match", "CH", "--seeds", "-1", "2"],
            ["capacity", "CH", "--quantity", "ce", "--max-iters", "-5"],
            ["capacity", "CH", "--quantity", "smin", "--restarts", "0"],
            ["capacity", "CH", "--quantity", "coh", "--restarts", "0"],
            # only ce and coh iterate to a cap
            ["capacity", "CH", "--quantity", "smin", "--max-iters", "10"],
            ["capacity", "--quantity", "combine", "--values", "1", "--max-iters", "10"],
            ["capacity", "CH", "--quantity", "ce", "--alpha", "7"],
            ["capacity", "CH", "--quantity", "coh", "--alpha", "2"],
            ["capacity", "--quantity", "combine", "--values", "1", "--alpha", "2"],
            ["capacity", "CH", "--quantity", "smin", "--values", "1"],
            ["capacity", "CH", "--quantity", "ce", "--values", "1", "2"],
            # only smin and coh restart
            ["capacity", "CH", "--quantity", "ce", "--restarts", "5"],
            ["capacity", "--quantity", "combine", "--values", "1", "--restarts", "3"],
        ],
        ids=["decompose", "restrict", "fixed-states", "capacity", "match", "max-iters",
             "smin-restarts", "coh-restarts", "smin-max-iters", "combine-max-iters",
             "ce-alpha", "coh-alpha", "combine-alpha", "smin-values", "ce-values",
             "ce-restarts", "combine-restarts"],
    )
    def test_rejected_before_solve(self, monkeypatch, channel_doc, args):
        calls = count_calls(monkeypatch, fixed_points, "commutant_basis")
        code, out, err = run([channel_doc if a == "CH" else a for a in args])
        assert code == 2
        assert strict_json(out)["error"]["type"] == "InvalidParameter"
        assert "Traceback" not in err
        assert len(calls) == 0

    def test_negative_block_before_reading(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, fixed_points, "commutant_basis")
        code, out, err = run(["restrict", str(tmp_path / "missing.json"), "--block", "-1"])
        assert code == 2
        assert strict_json(out)["error"]["type"] == "InvalidParameter"
        assert "Traceback" not in err
        assert len(calls) == 0

    def test_gen_negative_seed(self):
        code, out, err = run(["gen", "--kind", "random_unital", "--dim", "3", "--seed", "-1"])
        assert code == 2
        assert strict_json(out)["error"]["type"] == "InvalidParameter"
        assert "Traceback" not in err


def test_tolerance_defaults_are_the_library_defaults():
    for argv in (["validate", "x"], ["decompose", "x"], ["match", "x"], ["gen", "--kind",
                 "identity", "--dim", "2"], ["capacity", "--quantity", "combine"]):
        assert _tol(_PARSER.parse_args(argv)) == Tolerances()


NON_FINITE_TOKENS = ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400]


class TestNonFiniteEntries:
    """A matrix entry that is not a finite float is a parse error (exit 2)
    with the entry's path, never a report with NaN in it or a traceback."""

    def expect_parse_error(self, args, path):
        code, out, err = run(args)
        assert code == 2
        error = strict_json(out)["error"]
        assert error["type"] == "ParseError"
        assert error["path"] == path
        assert "Traceback" not in err

    @pytest.mark.parametrize("token", NON_FINITE_TOKENS, ids=lambda t: t[:10])
    @pytest.mark.parametrize("verb", ["validate", "decompose"])
    def test_channel(self, tmp_path, token, verb):
        text = ('{"schema_version": "1", "dim": 1, "kraus": [[[1, 0]], [[0, %s]]]}' % token)
        path = write(tmp_path, "ch.json", text)
        self.expect_parse_error([verb, path], "$.kraus[1][0]")

    @pytest.mark.parametrize("token", NON_FINITE_TOKENS, ids=lambda t: t[:10])
    def test_measurement(self, tmp_path, depolarizing_doc, token):
        text = ('{"schema_version": "1", "dim": 2, "type": "povm", "elements": '
                '[[[1, 0], [0, 0], [0, 0], [%s, 0]]]}' % token)
        mpath = write(tmp_path, "m.json", text)
        self.expect_parse_error(["check-measurement", depolarizing_doc, mpath],
                                "$.elements[0][3]")

    @pytest.mark.parametrize("token", NON_FINITE_TOKENS, ids=lambda t: t[:10])
    def test_state(self, tmp_path, depolarizing_doc, token):
        text = ('{"schema_version": "1", "dim": 2, "matrix": '
                '[[0.5, 0], [0, %s], [0, 0], [0.5, 0]]}' % token)
        spath = write(tmp_path, "rho.json", text)
        self.expect_parse_error(["fixed-states", depolarizing_doc, "--state", spath],
                                "$.matrix[1]")


class TestSharedParser:
    """One process runs verbs in a row; nothing carries over between calls."""

    def test_parse_error_then_good_call(self, depolarizing_doc):
        assert run(["decompose"])[0] == 2
        assert run(["no-such-verb", depolarizing_doc])[0] == 2
        code, out, _ = run(["decompose", depolarizing_doc])
        assert code == 0
        assert json.loads(out)["command"] == "decompose"

    def test_match_seeds_default(self, depolarizing_doc):
        runs = [[], ["--seeds", "2", "3"], []]
        seeds = []
        for extra in runs:
            code, out, _ = run(["match", depolarizing_doc, *extra])
            assert code == 0
            seeds.append(json.loads(out)["seeds"])
        assert seeds == [[0, 1], [2, 3], [0, 1]]

    def test_capacity_values_do_not_leak(self):
        code, out, _ = run(["capacity", "--quantity", "combine", "--values", "1", "2"])
        assert code == 0
        assert json.loads(out)["quantity"]["per_block"] == [1.0, 2.0]
        code, out, _ = run(["capacity", "--quantity", "combine"])
        assert code == 2
        assert json.loads(out)["error"]["message"] == "--quantity combine needs --values"


class TestRestrict:
    def test_block_channel(self, tmp_path):
        ch, _, _ = rotated_direct_sum((2, 3), seed=19)
        path = write(tmp_path, "ch.json", dumps_report(channel_to_document(ch)))
        code, out, _ = run(["restrict", path, "--block", "0", "--seed", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["block_dim"] == 2
        sub = parse_channel(json.dumps(rep["channel"]))
        assert sub.dim == 2

    def test_bad_index(self, depolarizing_doc):
        code, out, _ = run(["restrict", depolarizing_doc, "--block", "5"])
        assert code == 2


class TestMatch:
    def test_two_seeds(self, tmp_path):
        ch, _, _ = rotated_direct_sum((2, 3), seed=19)
        path = write(tmp_path, "ch.json", dumps_report(channel_to_document(ch)))
        code, out, _ = run(["match", path, "--seeds", "1", "2"])
        assert code == 0
        rep = json.loads(out)
        assert sorted(rep["left_dims"]) == [2, 3]
        assert rep["left_dims"] == rep["right_dims"]
        for pair in rep["bijection"]:
            assert rep["left_dims"][pair[0]] == rep["right_dims"][pair[1]]


class TestFixedStates:
    def test_summary(self, tmp_path):
        ch, _, _ = rotated_direct_sum((2, 3), seed=19)
        path = write(tmp_path, "ch.json", dumps_report(channel_to_document(ch)))
        code, out, _ = run(["fixed-states", path, "--seed", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["commutant_count"] == 2
        assert len(rep["building_blocks"]) == 2

    def test_classify_state(self, tmp_path):
        ch, _, projectors = rotated_direct_sum((2, 3), seed=19)
        path = write(tmp_path, "ch.json", dumps_report(channel_to_document(ch)))
        rho = 0.4 * projectors[0] / 2 + 0.6 * projectors[1] / 3
        spath = write(tmp_path, "rho.json", dumps_report(operator_to_document(rho)))
        code, out, _ = run(["fixed-states", path, "--state", spath, "--seed", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["classification"]["type"] == "block_mixture"
        assert sorted(round(w, 6) for w in rep["classification"]["weights"]) == [0.4, 0.6]

    def test_classify_not_fixed(self, tmp_path, depolarizing_doc):
        rho = np.diag([1.0, 0.0]).astype(complex)
        spath = write(tmp_path, "rho.json", dumps_report(operator_to_document(rho)))
        code, out, _ = run(["fixed-states", depolarizing_doc, "--state", spath])
        assert code == 0
        rep = json.loads(out)
        assert rep["classification"]["type"] == "not_fixed"
        assert rep["classification"]["fixed"] is False


class TestCheckMeasurement:
    def test_dephasing_computational(self, tmp_path):
        ch = dephasing_channel(2)
        cpath = write(tmp_path, "ch.json", dumps_report(channel_to_document(ch)))
        m = computational_measurement(2)
        mpath = write(tmp_path, "m.json", dumps_report(measurement_to_document(m)))
        code, out, _ = run(["check-measurement", cpath, mpath])
        assert code == 0
        rep = json.loads(out)
        assert rep["all_preserved"] is True
        assert rep["channels_commute"]["commute"] is True
        assert rep["ranges_invariant"] is True
        for e in rep["elements"]:
            assert e["preserved"] is True
            assert "terms" in e

    def test_weak_depolarizing_preserved(self, tmp_path):
        # its light Kraus operators couple each range at sqrt(p / 4) = 5e-6, yet
        # the channel moves each projector by only p / 2
        ch = depolarizing_channel(2, 1e-10)
        cpath = write(tmp_path, "ch.json", dumps_report(channel_to_document(ch)))
        m = computational_measurement(2)
        mpath = write(tmp_path, "m.json", dumps_report(measurement_to_document(m)))
        code, out, _ = run(["check-measurement", cpath, mpath])
        assert code == 0
        rep = json.loads(out)
        assert rep["all_preserved"] is True and rep["ranges_invariant"] is True

    def test_loose_projector_is_its_range_and_kernel(self, tmp_path):
        # P = diag(1, 1 - 3e-6, 0) is a projector within --tol-residual 1e-5: its
        # eigenspaces are its range span(e0, e1), invariant under the rotation in
        # that plane, and its kernel, not three clusters at tol.eigencluster
        u = np.eye(3, dtype=complex)
        u[:2, :2] = [[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]
        upath = write(tmp_path, "u.json", dumps_report(operator_to_document(u)))
        code, doc, _ = run(["gen", "--kind", "unitary", "--dim", "3", "--unitary", upath])
        cpath = write(tmp_path, "ch.json", doc)
        p = np.diag([1, 1 - 3e-6, 0]).astype(complex)
        m = {"schema_version": "1", "dim": 3, "type": "projective",
             "elements": [matrix_to_wire(p), matrix_to_wire(np.eye(3) - p)]}
        mpath = write(tmp_path, "m.json", json.dumps(m))
        code, out, _ = run(["check-measurement", cpath, mpath, "--tol-residual", "1e-5"])
        assert code == 0
        rep = json.loads(out)
        assert rep["all_preserved"] is True and rep["ranges_invariant"] is True
        assert [[t["dim"] for t in e["terms"]] for e in rep["elements"]] == [[2, 1], [1, 2]]

    def test_depolarizing_not_preserved(self, tmp_path, depolarizing_doc):
        m = computational_measurement(2)
        mpath = write(tmp_path, "m.json", dumps_report(measurement_to_document(m)))
        code, out, _ = run(["check-measurement", depolarizing_doc, mpath])
        assert code == 0
        rep = json.loads(out)
        assert rep["all_preserved"] is False
        for e in rep["elements"]:
            assert e["preserved"] is False
            assert "witness" in e

    def test_povm_document(self, tmp_path, depolarizing_doc):
        doc = {
            "schema_version": "1",
            "dim": 2,
            "type": "povm",
            "elements": [matrix_to_wire(0.5 * np.eye(2)), matrix_to_wire(0.5 * np.eye(2))],
        }
        mpath = write(tmp_path, "povm.json", json.dumps(doc))
        code, out, _ = run(["check-measurement", depolarizing_doc, mpath])
        assert code == 0
        rep = json.loads(out)
        assert rep["all_preserved"] is True
        assert "channels_commute" not in rep


class TestCapacity:
    def test_smin_per_block(self, tmp_path):
        ch, _, _ = rotated_direct_sum((1, 2), seed=33)
        path = write(tmp_path, "ch.json", dumps_report(channel_to_document(ch)))
        code, out, _ = run(
            ["capacity", path, "--quantity", "smin", "--alpha", "2", "--restarts", "8"]
        )
        assert code == 0
        rep = json.loads(out)
        q = rep["quantity"]
        assert q["kind"] == "min_output_renyi"
        assert q["alpha"] == 2
        assert len(q["per_block"]) == 2
        assert q["combined_bits"] == pytest.approx(min(q["per_block"]))

    def test_bound_labels(self, tmp_path):
        # optimized values bound the optimum from the side they search from
        ch, _, _ = rotated_direct_sum((1, 2), seed=33)
        path = write(tmp_path, "ch.json", dumps_report(channel_to_document(ch)))
        for quantity, bound, restarts in (("smin", "upper", ["--restarts", "4"]),
                                          ("coh", "lower", ["--restarts", "4"]),
                                          ("ce", "lower", [])):
            code, out, _ = run(["capacity", path, "--quantity", quantity, *restarts])
            assert code == 0
            assert json.loads(out)["quantity"].get("bound") == bound

    def test_restarts_default(self, tmp_path):
        code, doc, _ = run(["gen", "--kind", "random_unital", "--dim", "2", "--seed", "3"])
        path = write(tmp_path, "ch.json", doc)
        for quantity in ("smin", "coh"):
            code, out, _ = run(["capacity", path, "--quantity", quantity])
            assert code == 0
            assert strict_json(out)["quantity"]["restarts"] == 32

    def test_combine(self):
        code, out, _ = run(["capacity", "--quantity", "combine", "--values", "1.0", "1.0"])
        assert code == 0
        rep = json.loads(out)
        assert rep["quantity"]["kind"] == "classical_capacity"
        assert rep["quantity"]["combined_bits"] == pytest.approx(2.0)

    def test_combine_needs_values(self):
        code, out, _ = run(["capacity", "--quantity", "combine"])
        assert code == 2

    def test_ce_identity(self, tmp_path):
        from krausblocks import identity_channel

        path = write(tmp_path, "id.json", dumps_report(channel_to_document(identity_channel(2))))
        code, out, _ = run(["capacity", path, "--quantity", "ce"])
        assert code == 0
        rep = json.loads(out)
        # identity splits into two rays, each with zero assisted capacity
        assert rep["quantity"]["per_block"] == [0.0, 0.0]
        assert rep["quantity"]["combined_bits"] == pytest.approx(1.0)

    def test_ce_irreducible_dim_8(self, tmp_path):
        code, doc, _ = run(["gen", "--kind", "random_unital", "--dim", "8", "--seed", "1"])
        assert code == 0
        path = write(tmp_path, "ch.json", doc)
        code, out, _ = run(["capacity", path, "--quantity", "ce"])
        assert code == 0
        rep = json.loads(out)
        assert rep["block_dims"] == [8]
        assert 0.0 < rep["quantity"]["combined_bits"] <= 2 * np.log2(8)

    def test_coh_determinism(self, tmp_path):
        ch, _, _ = rotated_direct_sum((1, 2), seed=34)
        path = write(tmp_path, "ch.json", dumps_report(channel_to_document(ch)))
        _, out1, _ = run(["capacity", path, "--quantity", "coh", "--restarts", "4", "--seed", "2"])
        _, out2, _ = run(["capacity", path, "--quantity", "coh", "--restarts", "4", "--seed", "2"])
        assert out1 == out2

    def test_non_convergence_exit_3(self, tmp_path):
        # the maximally mixed start is not optimal for generic qutrit
        # channels, so zero ascent steps cannot certify convergence
        from krausblocks import random_unital_channel

        ch = random_unital_channel(3, 3, seed=0)
        path = write(tmp_path, "ch.json", dumps_report(channel_to_document(ch)))
        code, out, _ = run(["capacity", path, "--quantity", "ce", "--max-iters", "0"])
        assert code == 3
        assert json.loads(out)["error"]["type"] == "NonConvergence"


class TestMaxIters:
    """``--max-iters`` reaches both iterating quantities; unset, each keeps its
    library default."""

    @pytest.mark.parametrize("quantity, function, iters", [
        ("ce", "ent_assisted_capacity", 5000),
        ("coh", "coherent_information", 7),
    ])
    @pytest.mark.parametrize("given", [True, False], ids=["given", "unset"])
    def test_passed_through(self, tmp_path, monkeypatch, quantity, function, iters, given):
        seen = []
        real = getattr(cli, function)

        def recording(*args, **kwargs):
            seen.append(kwargs.get("max_iters"))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, function, recording)
        code, doc, _ = run(["gen", "--kind", "random_unital", "--dim", "2", "--seed", "3"])
        path = write(tmp_path, "ch.json", doc)
        flag = ["--max-iters", iters] if given else []
        if quantity == "coh":  # ce takes no restarts
            flag += ["--restarts", "2"]
        code, out, _ = run(["capacity", path, "--quantity", quantity, *flag])
        assert code == 0
        assert seen == [iters if given else None]


class TestGenUnitary:
    def test_gen_from_operator_document(self, tmp_path):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        upath = write(tmp_path, "u.json", dumps_report(operator_to_document(h)))
        code, out, _ = run(["gen", "--kind", "unitary", "--dim", "2", "--unitary", upath])
        assert code == 0
        ch = parse_channel(out)
        assert ch.n_kraus == 1
        assert np.allclose(ch.kraus[0], h)


    def test_smin_alpha_defaults_to_one(self, tmp_path):
        code, doc, _ = run(["gen", "--kind", "random_unital", "--dim", "2", "--seed", "3"])
        path = write(tmp_path, "ch.json", doc)
        code, out, _ = run(["capacity", path, "--quantity", "smin", "--restarts", "2"])
        assert code == 0
        assert '"alpha":1.0,' in out
        assert out == run(["capacity", path, "--quantity", "smin", "--restarts", "2",
                           "--alpha", "1"])[1]


class TestMeasurementValidation:
    def test_invalid_measurement_exit_1(self, tmp_path, depolarizing_doc):
        doc = {
            "schema_version": "1",
            "dim": 2,
            "type": "povm",
            "elements": [matrix_to_wire(np.eye(2)), matrix_to_wire(np.eye(2))],
        }
        mpath = write(tmp_path, "bad.json", json.dumps(doc))
        code, out, _ = run(["check-measurement", depolarizing_doc, mpath])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "InvalidMeasurement"


class TestEigenclusterFlag:
    """``--tol-eigencluster`` sets where eigenvalues of a POVM element count as
    one eigenspace: a 5e-9 gap is one cluster at the default 1e-7 and two at
    1e-9."""

    def test_splits_close_eigenvalues(self, tmp_path):
        code, doc, _ = run(["gen", "--kind", "identity", "--dim", "2"])
        ch = write(tmp_path, "id.json", doc)
        e = np.diag([0.5, 0.5 + 5e-9]).astype(complex)
        m = {"schema_version": "1", "dim": 2, "type": "povm",
             "elements": [matrix_to_wire(e), matrix_to_wire(np.eye(2) - e)]}
        mpath = write(tmp_path, "m.json", json.dumps(m))
        for flags, terms in (([], 1), (["--tol-eigencluster", "1e-9"], 2)):
            code, out, _ = run(["check-measurement", ch, mpath, *flags])
            assert code == 0
            report = strict_json(out)
            assert report["all_preserved"] is True
            assert [len(el["terms"]) for el in report["elements"]] == [terms, terms]
            assert sum(t["dim"] for t in report["elements"][0]["terms"]) == 2
        assert '"eigencluster":1e-09' in out


class TestInputValidationExitCodes:
    """An input document that fails its own validation exits 1, like a channel."""

    def test_state_not_a_density_matrix(self, tmp_path, depolarizing_doc):
        rho = np.diag([1.5, -0.5]).astype(complex)
        spath = write(tmp_path, "rho.json", dumps_report(operator_to_document(rho)))
        code, out, err = run(["fixed-states", depolarizing_doc, "--state", spath])
        assert code == 1
        assert strict_json(out)["error"]["type"] == "NotADensityMatrix"
        assert err.startswith("validation failure")

    def test_gen_not_unitary(self, tmp_path):
        u = np.array([[1, 1], [0, 1]], dtype=complex)
        upath = write(tmp_path, "u.json", dumps_report(operator_to_document(u)))
        code, out, err = run(["gen", "--kind", "unitary", "--dim", "2", "--unitary", upath])
        assert code == 1
        assert strict_json(out)["error"]["type"] == "NotUnitary"
        assert err.startswith("validation failure")

    def test_gen_unitary_follows_tol_residual(self, tmp_path):
        u = np.array([[1 + 1e-6, 0], [0, 1]], dtype=complex)
        upath = write(tmp_path, "u.json", dumps_report(operator_to_document(u)))
        argv = ["gen", "--kind", "unitary", "--dim", "2", "--unitary", upath]
        code, out, _ = run(argv)
        assert code == 1
        assert strict_json(out)["error"]["type"] == "NotUnitary"
        code, out, _ = run(argv + ["--tol-residual", "1e-3"])
        assert code == 0
        assert parse_channel(out, Tolerances(residual=1e-3)).n_kraus == 1

    def test_projectors_follow_tol_residual(self, tmp_path, depolarizing_doc):
        # projectors summing to (1 + 5e-9) I: off by 5e-9 in every check
        scaled = [(1 + 5e-9) * np.diag(row) for row in np.eye(2)]
        doc = {"schema_version": "1", "dim": 2, "type": "projective",
               "elements": [matrix_to_wire(p) for p in scaled]}
        mpath = write(tmp_path, "m.json", json.dumps(doc))
        code, out, _ = run(["check-measurement", depolarizing_doc, mpath])
        assert code == 1
        assert strict_json(out)["error"]["type"] == "InvalidMeasurement"
        code, out, _ = run(["check-measurement", depolarizing_doc, mpath, "--tol-residual", "1e-8"])
        assert code == 0
        assert strict_json(out)["all_preserved"] is False

    def test_state_trace_follows_tol_residual(self, tmp_path, depolarizing_doc):
        rho = (1 + 5e-9) * np.eye(2, dtype=complex) / 2
        spath = write(tmp_path, "rho.json", dumps_report(operator_to_document(rho)))
        code, out, _ = run(["fixed-states", depolarizing_doc, "--state", spath])
        assert code == 1
        assert strict_json(out)["error"]["type"] == "NotADensityMatrix"
        code, out, _ = run(["fixed-states", depolarizing_doc, "--state", spath,
                            "--tol-residual", "1e-8"])
        assert code == 0
        assert strict_json(out)["classification"]["type"] == "block_mixture"


class TestLoadedChannel:
    def test_keeps_the_parsed_stack(self, monkeypatch, depolarizing_doc):
        parsed = []
        real = cli.parse_channel_ops

        def recording(text):
            parsed.append(real(text))
            return parsed[-1]

        monkeypatch.setattr(cli, "parse_channel_ops", recording)
        ch, _ = cli._load_channel(depolarizing_doc, Tolerances())
        assert np.shares_memory(parsed[0][1], ch.kraus)


class TestDimensionMismatch:
    # documents that are each well formed but do not fit together are an
    # argument error (exit 2), not a numerical failure (exit 3)
    def test_measurement_on_smaller_channel(self, tmp_path, depolarizing_doc):
        m = computational_measurement(3)
        mpath = write(tmp_path, "m.json", dumps_report(measurement_to_document(m)))
        code, out, _ = run(["check-measurement", depolarizing_doc, mpath])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "DimensionMismatch"

    def test_state_on_smaller_channel(self, tmp_path, depolarizing_doc):
        spath = write(tmp_path, "rho.json", dumps_report(operator_to_document(np.eye(3) / 3)))
        code, out, _ = run(["fixed-states", depolarizing_doc, "--state", spath])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "DimensionMismatch"

    def test_unitary_for_smaller_gen(self, tmp_path):
        upath = write(tmp_path, "u.json", dumps_report(operator_to_document(np.eye(3))))
        code, out, err = run(["gen", "--kind", "unitary", "--dim", "2", "--unitary", upath])
        assert code == 2
        assert strict_json(out)["error"] == {"type": "DimensionMismatch",
                                             "message": "unitary must be 2x2"}
        assert "Traceback" not in err


class TestReportFormat:
    def test_round_trip_stable(self, tmp_path):
        # -0.0 entries and whole-number floats print so that they read back
        # as the same floats, and re-emitting a report reproduces its bytes
        kraus = np.array(depolarizing_channel(2, 0.5).kraus)
        kraus[1, 0, 1] = -0.0  # an off-diagonal zero of Z / 2, signed
        depolarizing_doc = write(tmp_path, "dep.json", dumps_report(
            channel_to_document(channel.KrausChannel(2, kraus))))
        assert "-0.0," in open(depolarizing_doc).read()
        mpath = write(tmp_path, "m.json", dumps_report(measurement_to_document(
            computational_measurement(2))))
        spath = write(tmp_path, "rho.json", dumps_report(operator_to_document(np.eye(2) / 2)))
        for argv in (
            ["gen", "--kind", "depolarizing", "--dim", "2", "--p", "0.5"],
            ["validate", depolarizing_doc],
            ["decompose", depolarizing_doc, "--seed", "0"],
            ["restrict", depolarizing_doc, "--block", "0"],
            ["match", depolarizing_doc],
            ["fixed-states", depolarizing_doc, "--state", spath],
            ["check-measurement", depolarizing_doc, mpath],
            ["capacity", depolarizing_doc, "--quantity", "smin", "--restarts", "2"],
            ["capacity", depolarizing_doc, "--quantity", "ce"],
            ["capacity", depolarizing_doc, "--quantity", "coh", "--restarts", "2"],
            ["capacity", "--quantity", "combine", "--values", "1", "-0.0"],
            ["restrict", depolarizing_doc, "--block", "5"],
        ):
            code, out, _ = run(argv)
            assert code == (2 if argv[-1] == "5" else 0), argv
            assert dumps_report(strict_json(out)) == out.strip(), argv

    def test_parse_measure_round_trip(self):
        m = computational_measurement(3)
        doc = dumps_report(measurement_to_document(m))
        m2 = parse_measurement(doc)
        assert m2.dim == 3
        assert all(
            np.allclose(a, b) for a, b in zip(m.projectors, m2.projectors)
        )

    def test_parse_handwritten_identity_document(self):
        doc = {
            "schema_version": "1",
            "dim": 2,
            "kraus": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
        }
        ch = parse_channel(json.dumps(doc))
        assert ch.dim == 2
        assert np.allclose(ch.kraus[0], np.eye(2))

    def test_parse_errors_carry_paths(self):
        from krausblocks.errors import ParseError

        with pytest.raises(ParseError) as exc:
            parse_measurement(json.dumps({"schema_version": "1", "dim": 2,
                                          "type": "nope", "elements": []}))
        assert "type" in exc.value.path
        with pytest.raises(ParseError) as exc:
            parse_channel(json.dumps({"schema_version": "1", "dim": 2,
                                      "kraus": [[[1.0, 0.0], ["x", 0.0]]]}))
        assert "kraus[0]" in exc.value.path
        with pytest.raises(ParseError):
            parse_channel(json.dumps({"schema_version": "1", "kraus": []}))


class TestInputContract:
    """Each malformed document header and each empty matrix list is a parse
    error (exit 2) whose report names the field and says what is wrong."""

    CHANNEL = {"schema_version": "1", "dim": 1, "kraus": [[[1, 0]]]}
    MEASUREMENT = {"schema_version": "1", "dim": 2, "type": "povm",
                   "elements": [matrix_to_wire(np.eye(2))]}
    STATE = {"schema_version": "1", "dim": 2, "matrix": matrix_to_wire(np.eye(2) / 2)}

    def expect(self, args, path, message):
        code, out, err = run(args)
        assert code == 2
        error = strict_json(out)["error"]
        assert error["type"] == "ParseError"
        assert error["path"] == path
        assert error["message"] == f"{path}: {message}"
        assert "Traceback" not in err

    def channel(self, tmp_path, **fields):
        return write(tmp_path, "ch.json", json.dumps({**self.CHANNEL, **fields}))

    @pytest.mark.parametrize("text", ["[]", '"x"', "1", "null"])
    def test_not_an_object(self, tmp_path, text):
        self.expect(["validate", write(tmp_path, "ch.json", text)], "$",
                    "document must be a JSON object")

    def test_boolean_dim(self, tmp_path):
        self.expect(["validate", self.channel(tmp_path, dim=True)], "$.dim",
                    "field 'dim' must be an integer")

    @pytest.mark.parametrize("field, value", [("schema_version", 1), ("dim", 1.0),
                                              ("kraus", {})])
    def test_wrong_type(self, tmp_path, field, value):
        self.expect(["validate", self.channel(tmp_path, **{field: value})], f"$.{field}",
                    f"field {field!r} has the wrong type")

    def test_missing_field(self, tmp_path):
        doc = dict(self.CHANNEL)
        del doc["schema_version"]
        self.expect(["validate", write(tmp_path, "ch.json", json.dumps(doc))], "$",
                    "missing field 'schema_version'")

    def test_channel_dim_zero(self, tmp_path):
        self.expect(["validate", self.channel(tmp_path, dim=0)], "$.dim", "dim must be >= 1")

    def test_measurement_dim_zero(self, tmp_path, depolarizing_doc):
        m = write(tmp_path, "m.json", json.dumps({**self.MEASUREMENT, "dim": 0}))
        self.expect(["check-measurement", depolarizing_doc, m], "$.dim", "dim must be >= 1")

    def test_state_dim_zero(self, tmp_path, depolarizing_doc):
        s = write(tmp_path, "rho.json", json.dumps({**self.STATE, "dim": 0}))
        self.expect(["fixed-states", depolarizing_doc, "--state", s], "$.dim",
                    "dim must be >= 1")

    def test_unitary_dim_zero(self, tmp_path):
        u = write(tmp_path, "u.json", json.dumps({**self.STATE, "dim": 0}))
        self.expect(["gen", "--kind", "unitary", "--dim", "2", "--unitary", u], "$.dim",
                    "dim must be >= 1")

    def test_empty_kraus(self, tmp_path):
        self.expect(["decompose", self.channel(tmp_path, kraus=[])], "$.kraus",
                    "kraus list must be nonempty")

    def test_empty_elements(self, tmp_path, depolarizing_doc):
        m = write(tmp_path, "m.json", json.dumps({**self.MEASUREMENT, "elements": []}))
        self.expect(["check-measurement", depolarizing_doc, m], "$.elements",
                    "elements list must be nonempty")

    def test_header_before_body(self, tmp_path, depolarizing_doc):
        # a bad header is reported even when the body is bad too
        m = write(tmp_path, "m.json", json.dumps({**self.MEASUREMENT, "dim": -1,
                                                  "type": "nope", "elements": []}))
        self.expect(["check-measurement", depolarizing_doc, m], "$.dim", "dim must be >= 1")

    # a byte that is not UTF-8, and arrays nested past the recursion limit
    UNDECODABLE = {
        "not-utf8": b'{"schema_version": "1", "dim": 1, "kraus": [[[1, 0]]], "x": "\xff"}',
        "nested": b"[" * 200000,
    }

    @pytest.mark.parametrize("raw", UNDECODABLE.values(), ids=UNDECODABLE.keys())
    @pytest.mark.parametrize("as_state", [False, True], ids=["channel", "state"])
    def test_undecodable(self, tmp_path, depolarizing_doc, raw, as_state):
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        argv = ["fixed-states", depolarizing_doc, "--state", bad] if as_state else \
            ["validate", bad]
        code, out, err = run(argv)
        assert code == 2
        error = strict_json(out)["error"]
        assert error["type"] == "ParseError"
        assert error["path"] == "$"
        assert "Traceback" not in err

    def test_smin_without_a_channel(self):
        code, out, err = run(["capacity", "--quantity", "smin"])
        assert code == 2
        error = strict_json(out)["error"]
        assert error == {"type": "InvalidParameter",
                         "message": "this quantity needs a channel document"}
        assert "Traceback" not in err


class TestGenIdentity:
    def test_in_process(self):
        code, out, _ = run(["gen", "--kind", "identity", "--dim", "3", "--seed", "4"])
        assert code == 0
        doc = strict_json(out)
        assert doc["metadata"]["construction"] == "identity"
        assert doc["metadata"]["seed"] == 4
        assert np.array_equal(parse_channel(out).kraus, np.eye(3)[None])


class TestInconsistentTolerances:
    @pytest.mark.parametrize("case", INCONSISTENT, ids=str)
    def test_exit_3_with_report(self, tmp_path, monkeypatch, case):
        make, name, replacement, message = INCONSISTENT[case]
        cpath = write(tmp_path, "ch.json", dumps_report(channel_to_document(make(2))))
        m = measurement_to_document(computational_measurement(2))
        mpath = write(tmp_path, "m.json", dumps_report(m))
        monkeypatch.setattr(measurement, name, replacement())
        code, out, err = run(["check-measurement", cpath, mpath])
        assert code == 3
        error = strict_json(out)["error"]
        assert error["type"] == "ToleranceFailure"
        assert message in error["message"]
        assert "Traceback" not in err
