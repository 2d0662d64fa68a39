"""Command-line front end.

One machine-readable JSON report goes to stdout, a short human summary to
stderr. Exit codes: 0 success, 1 an input document that fails validation (a
channel, measurement, ``--state`` density matrix or ``--unitary``), 2 parse
or argument error (a dimension mismatch between input documents included), 3
tolerance, convergence or numerical failure. Reports embed the schema
version and tolerances; ``serialize.dumps_report`` writes them, byte-identical
for identical inputs, every float read back exactly. Every verb that needs a
valid channel starts its report through one loader, and each report section
that two verbs share is defined once.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from numpy.linalg import LinAlgError

from .capacity import (
    coherent_information,
    ent_assisted_capacity,
    min_output_renyi,
    reduce_over_blocks,
    require_renyi_order,
)
from .channel import (
    KrausChannel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    random_unital_channel,
    unitary_channel,
    validate_kraus,
)
from .decomposition import IrisDecomposition, iris_decompose, match_decompositions, restrict
from .errors import (
    DimensionMismatch,
    InvalidMeasurement,
    InvalidParameter,
    KrausBlocksError,
    MultisetMismatch,
    NonConvergence,
    NotADensityMatrix,
    NotFixed,
    NotUnitary,
    ParseError,
    ToleranceFailure,
    ValidationError,
)
from .fixed_points import BlockMixture, classify_fixed_state
from .linalg import DEFAULT_TOL, Tolerances, require_at_least
from .measurement import (
    StructuralDecomposition,
    measurement_preserved,
)
from .serialize import (
    SCHEMA_VERSION,
    channel_to_document,
    dumps_report,
    matrix_to_wire,
    parse_channel_ops,
    parse_measurement,
    parse_operator,
    tolerances_to_document,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krausblocks",
        description="Analyze unital quantum channels: block structure, fixed "
        "states, measurement preservation, entropic quantities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, seed: bool = True):
        p.add_argument("--tol-residual", type=float, default=DEFAULT_TOL.residual)
        p.add_argument("--tol-eigencluster", type=float, default=DEFAULT_TOL.eigencluster)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", help="check the unital trace-preserving conditions")
    p.add_argument("channel")
    add_common(p, seed=False)

    p = sub.add_parser("decompose", help="irreducible invariant block decomposition")
    p.add_argument("channel")
    add_common(p)

    p = sub.add_parser("restrict", help="restrict the channel to one decomposition block")
    p.add_argument("channel")
    p.add_argument("--block", type=int, required=True)
    add_common(p)

    p = sub.add_parser("match", help="match two decompositions of the same channel")
    p.add_argument("channel")
    # a tuple: the parser is shared by every call, so its defaults stay immutable
    p.add_argument("--seeds", type=int, nargs=2, default=(0, 1), metavar=("A", "B"))
    add_common(p, seed=False)

    p = sub.add_parser("fixed-states", help="fixed-point structure; classify a state")
    p.add_argument("channel")
    p.add_argument("--state", help="operator document with a density matrix")
    add_common(p)

    p = sub.add_parser("check-measurement", help="measurement statistics preservation")
    p.add_argument("channel")
    p.add_argument("measurement")
    add_common(p, seed=False)

    p = sub.add_parser("capacity", help="entropic quantities with block reduction")
    p.add_argument("channel", nargs="?")
    p.add_argument("--quantity", choices=("smin", "ce", "coh", "combine"), required=True)
    p.add_argument("--alpha", type=float, help="Renyi order for smin (default 1)")
    p.add_argument("--values", type=float, nargs="+", help="per-block bits for combine")
    # None keeps each quantity's library default
    p.add_argument("--restarts", type=int, help="optimizer restarts for smin and coh")
    p.add_argument("--max-iters", type=int, help="iteration cap for ce and coh")
    add_common(p)

    p = sub.add_parser("gen", help="write a standard-channel document")
    p.add_argument("--kind", required=True,
                   choices=("identity", "depolarizing", "dephasing", "unitary", "random_unital"))
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--p", type=float, help="depolarizing strength")
    p.add_argument("--n-unitaries", type=int, default=3)
    p.add_argument("--unitary", help="operator document holding the unitary")
    add_common(p)

    return parser


# built once: parsing leaves the parser unchanged, so every call can share it
_PARSER = build_parser()


def _tol(args) -> Tolerances:
    return Tolerances(
        residual=args.tol_residual,
        eigencluster=args.tol_eigencluster,
    )


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}", "$")


def _load_channel(path: str, tol: Tolerances) -> tuple[KrausChannel, dict]:
    """The validated channel at ``path`` and its ``validation`` report field."""
    dim, kraus = parse_channel_ops(_read(path))
    report = validate_kraus(kraus, tol)
    if not (report.is_trace_preserving and report.is_unital):
        raise ValidationError("channel is not unital trace-preserving", report=report)
    return KrausChannel(dim=dim, kraus=kraus), asdict(report)


def _report_head(command: str, tol: Tolerances) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "tolerances": tolerances_to_document(tol),
    }


def _channel_report(args, tol: Tolerances) -> tuple[KrausChannel, list[IrisDecomposition], dict]:
    """Load the channel of a channel verb, decompose it at each of the verb's
    seeds and start its report: the header, ``seed`` or ``seeds``, then
    ``validation``."""
    ch, validation = _load_channel(args.channel, tol)
    out = _report_head(args.command, tol)
    seeds = []
    if "seed" in args:
        out["seed"] = args.seed
        seeds = [args.seed]
    if "seeds" in args:
        out["seeds"] = seeds = list(args.seeds)
    out["validation"] = validation
    return ch, [iris_decompose(ch, tol, seed=s) for s in seeds], out


def _subspace_doc(s) -> dict:
    return {"dim": s.dim, "basis": matrix_to_wire(s.basis)}


def _structure_doc(dec: IrisDecomposition) -> dict:
    """The ``commutant_count``, ``split`` and ``decomposition`` report fields."""
    return {
        "commutant_count": dec.commutant_count,
        "split": asdict(dec.split),
        "decomposition": {
            "block_dims": list(dec.block_dims),
            "certificates": [1] * dec.n_blocks,
            "blocks": [_subspace_doc(s) for s in dec.blocks],
        },
    }


# ---------------------------------------------------------------------------
# command handlers: each returns (report_dict, human_lines)
# ---------------------------------------------------------------------------


def _cmd_validate(args, tol):
    dim, kraus = parse_channel_ops(_read(args.channel))
    report = validate_kraus(kraus, tol)
    out = _report_head("validate", tol)
    out["dim"] = dim
    out["n_kraus"] = len(kraus)
    out["validation"] = asdict(report)
    ok = report.is_trace_preserving and report.is_unital
    human = [
        f"dim={dim} kraus={len(kraus)} "
        f"trace_preserving={report.is_trace_preserving} unital={report.is_unital}"
    ]
    return out, human, 0 if ok else 1


def _cmd_decompose(args, tol):
    _, (dec,), out = _channel_report(args, tol)
    out.update(_structure_doc(dec))
    human = [f"blocks: {list(dec.block_dims)} (commutant count {dec.commutant_count})"]
    return out, human, 0


def _cmd_restrict(args, tol):
    require_at_least("--block", args.block, 0)  # before the channel is read
    ch, (dec,), out = _channel_report(args, tol)
    if args.block >= dec.n_blocks:
        raise InvalidParameter(
            f"--block must be in [0, {dec.n_blocks - 1}] for this decomposition"
        )
    sub = dec.blocks[args.block]
    restricted = restrict(ch, sub, tol)
    out["block_index"] = args.block
    out["block_dim"] = sub.dim
    out["block_basis"] = matrix_to_wire(sub.basis)
    out["channel"] = channel_to_document(restricted)
    human = [f"restricted to block {args.block} (dim {sub.dim} of {ch.dim})"]
    return out, human, 0


def _cmd_match(args, tol):
    _, (d1, d2), out = _channel_report(args, tol)
    matching = match_decompositions(d1, d2, tol)
    out["left_dims"] = list(d1.block_dims)
    out["right_dims"] = list(d2.block_dims)
    out["components"] = [
        {
            "left": list(c.left_block_indices),
            "right": list(c.right_block_indices),
            "dims": list(c.common_dimension_multiset),
        }
        for c in matching.components
    ]
    out["bijection"] = [list(pair) for pair in matching.bijection]
    human = [
        f"matched {d1.n_blocks} blocks across {len(matching.components)} component(s)"
    ]
    return out, human, 0


def _cmd_fixed_states(args, tol):
    ch, (dec,), out = _channel_report(args, tol)
    out.update(_structure_doc(dec))
    out["building_blocks"] = [
        {"dim": s.dim, "uniform_weight": s.dim / ch.dim} for s in dec.blocks
    ]
    human = [f"{dec.commutant_count} fixed-point dimension(s), blocks {list(dec.block_dims)}"]
    if args.state:
        rho = parse_operator(_read(args.state))
        try:
            result = classify_fixed_state(ch, rho, dec, tol)
        except NotFixed as exc:
            out["classification"] = {
                "fixed": False,
                "type": "not_fixed",
                "fix_residual": exc.residual,
            }
            human.append(f"state not fixed (residual {exc.residual:.3e})")
        else:
            if isinstance(result, BlockMixture):
                out["classification"] = {
                    "fixed": True,
                    "type": "block_mixture",
                    "weights": list(result.weights),
                    "fit_residual": result.residual,
                }
                human.append(f"state = block mixture, weights {list(result.weights)}")
            else:
                out["classification"] = {
                    "fixed": True,
                    "type": "degenerate",
                    "fit_residual": result.residual,
                    "commutant_projection": matrix_to_wire(result.commutant_projection),
                }
                human.append("state fixed but not a mixture over this decomposition")
    return out, human, 0


def _cmd_check_measurement(args, tol):
    ch, _, out = _channel_report(args, tol)
    m = parse_measurement(_read(args.measurement), tol)
    report = measurement_preserved(ch, m, tol)
    out["measurement_type"] = "projective" if report.commute is not None else "povm"
    elements = []
    for er in report.elements:
        edoc = {"preserved": er.preserved, "residual": er.residual}
        if isinstance(er.structure, StructuralDecomposition):
            edoc["terms"] = [
                {"weight": t.weight, **_subspace_doc(t.subspace)} for t in er.structure.terms
            ]
        else:
            edoc["witness"] = _subspace_doc(er.structure.witness_subspace)
        elements.append(edoc)
    out["elements"] = elements
    out["all_preserved"] = report.all_preserved
    if report.commute is not None:
        out["channels_commute"] = asdict(report.commute)
        out["ranges_invariant"] = report.ranges_invariant
    human = [
        f"{len(elements)} element(s), all_preserved={report.all_preserved}"
    ]
    return out, human, 0


# --quantity -> (kind, the flags it reads, bound, multi-start); any other capacity
# flag is rejected. Each kind but classical_capacity (from --values) names the
# optimizer imported above; a multi-start one takes --seed and reports restarts.
# Each block value is a best-effort optimum: an upper bound on the minimal output
# entropy, which the min rule keeps, and a lower bound on the coherent
# information, which the max rule keeps; the assisted capacity's ascent values
# and their log-sum both lie below C_E.
_QUANTITIES = {
    "smin": ("min_output_renyi", ("--restarts", "--alpha"), "upper", True),
    "ce": ("ent_assisted_capacity", ("--max-iters",), "lower", False),
    "coh": ("coherent_information", ("--max-iters", "--restarts"), "lower", True),
    "combine": ("classical_capacity", ("--values",), None, False),
}


def _cmd_capacity(args, tol):
    kind, flags, bound, multistart = _QUANTITIES[args.quantity]
    for flag in ("--max-iters", "--restarts", "--alpha", "--values"):
        if getattr(args, flag[2:].replace("-", "_")) is not None and flag not in flags:
            readers = [q for q, row in _QUANTITIES.items() if flag in row[1]]
            raise InvalidParameter(f"{flag} applies only to --quantity {' and '.join(readers)}")
    opts = {}  # the optimizer's arguments; a flag not given keeps the library default
    if args.restarts is not None:
        require_at_least("--restarts", args.restarts, 1)  # before the channel is read
        opts["restarts"] = args.restarts
    if args.max_iters is not None:
        require_at_least("--max-iters", args.max_iters, 0)
        opts["max_iters"] = args.max_iters
    if "--values" in flags:
        if not args.values:
            raise InvalidParameter("--quantity combine needs --values")
        out, per_block = _report_head("capacity", tol), [float(v) for v in args.values]
        label, where = "combined classical capacity", ""
    else:
        if not args.channel:
            raise InvalidParameter("this quantity needs a channel document")
        if "--alpha" in flags:
            opts["alpha"] = 1.0 if args.alpha is None else args.alpha
            require_renyi_order(opts["alpha"])  # rejected before the channel is decomposed
        if multistart:
            opts["seed"] = args.seed
        ch, (dec,), out = _channel_report(args, tol)
        out["block_dims"] = list(dec.block_dims)
        per_block = []
        for s in dec.blocks:
            q = globals()[kind](restrict(ch, s, tol), tol=tol, **opts)
            per_block.append(q.value)
        label, where = kind, f" over blocks {list(dec.block_dims)}"
    combined = reduce_over_blocks(kind, per_block)
    qdoc = {"kind": kind, "method": "combined", "per_block": per_block, "combined_bits": combined}
    if "alpha" in opts:
        qdoc["alpha"] = opts["alpha"]
    if bound:
        qdoc["bound"] = bound
    if multistart:
        qdoc["restarts"] = q.restarts_used
    out["quantity"] = qdoc
    return out, [f"{label}: {combined:.6f} bits{where}"], 0


def _cmd_gen(args, tol):
    construction = args.kind
    if args.kind == "identity":
        ch = identity_channel(args.dim)
    elif args.kind == "dephasing":
        ch = dephasing_channel(args.dim)
    elif args.kind == "depolarizing":
        if args.p is None:
            raise InvalidParameter("depolarizing needs --p")
        ch = depolarizing_channel(args.dim, args.p)
        construction = f"depolarizing(p={args.p})"
    elif args.kind == "unitary":
        if not args.unitary:
            raise InvalidParameter("unitary kind needs --unitary")
        u = parse_operator(_read(args.unitary))
        if u.shape != (args.dim, args.dim):
            raise DimensionMismatch(f"unitary must be {args.dim}x{args.dim}")
        ch = unitary_channel(u, tol)
    else:
        ch = random_unital_channel(args.dim, args.n_unitaries, args.seed)
        construction = f"random_unital(n={args.n_unitaries}, seed={args.seed})"
    doc = channel_to_document(
        ch,
        metadata={
            "name": args.kind,
            "seed": args.seed,
            "construction": construction,
            "tolerances": tolerances_to_document(tol),
        },
    )
    return doc, [f"generated {construction} on dim {args.dim}"], 0


_HANDLERS = {
    "validate": _cmd_validate,
    "decompose": _cmd_decompose,
    "restrict": _cmd_restrict,
    "match": _cmd_match,
    "fixed-states": _cmd_fixed_states,
    "check-measurement": _cmd_check_measurement,
    "capacity": _cmd_capacity,
    "gen": _cmd_gen,
}


def _error_report(command: str, exc: Exception) -> dict:
    error = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ParseError):
        error["path"] = exc.path
    elif isinstance(exc, ValidationError) and exc.report is not None:
        error["validation"] = asdict(exc.report)
    return {"schema_version": SCHEMA_VERSION, "command": command, "error": error}


_ANY_FAILURE = (KrausBlocksError, MemoryError, LinAlgError)

# (exception classes, exit code, stderr label); the first row that matches wins
_FAILURES = (
    (ParseError, 2, "parse error"),
    ((InvalidParameter, DimensionMismatch), 2, "error"),
    ((ValidationError, InvalidMeasurement, NotADensityMatrix, NotUnitary), 1,
     "validation failure"),
    ((ToleranceFailure, NonConvergence, MultisetMismatch), 3, "tolerance failure"),
    (_ANY_FAILURE, 3, "error"),
)


def _fail(command: str, exc: Exception, code: int, label: str) -> int:
    print(dumps_report(_error_report(command, exc)))
    print(f"{label}: {exc}", file=sys.stderr)
    return code


def run_command(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    command = args.command
    try:
        tol = _tol(args)
    except ValueError as exc:
        return _fail(command, exc, 2, "error")

    try:
        for seed in getattr(args, "seeds", [getattr(args, "seed", 0)]):
            require_at_least("seed", seed, 0)  # before any document is read
        report, human, code = _HANDLERS[command](args, tol)
    except _ANY_FAILURE as exc:
        code, label = next(row[1:] for row in _FAILURES if isinstance(exc, row[0]))
        return _fail(command, exc, code, label)

    print(dumps_report(report))
    for line in human:
        print(line, file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
