"""One tolerance policy: every verdict on an input or a computed basis decides
through a ``Tolerances`` field.

Each routed decision is probed with an input whose deciding quantity is half
and twice its field's default value; scaling that field by 4 (or 1/4) must
flip the verdict, which shows the decision reads the field and no private
cutoff. Checks on computed bases read ``DEFAULT_TOL``, which is patched in
the module that decides.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import krausblocks
from krausblocks import (
    BlockMixture,
    IrisDecomposition,
    Povm,
    ProjectiveMeasurement,
    Subspace,
    classify_fixed_state,
    dephasing_channel,
    direct_sum,
    fixed_pure_state_check,
    hermitian_eig,
    identity_channel,
    iris_decompose,
    match_decompositions,
    orthonormal_complement,
    projection_intertwines,
    random_unital_channel,
    statistics_preserved,
    unitary_channel,
)
from krausblocks import decomposition, linalg
from krausblocks.errors import (
    InvalidMeasurement,
    NotADensityMatrix,
    NotAProjector,
    NotHermitian,
    NotNormalized,
    NotOrthonormal,
    NotPSD,
    NotUnitary,
)
from krausblocks.linalg import DEFAULT_TOL, density_matrix


def passes(call, error, match: str) -> bool:
    """False when ``call`` raises ``error`` with ``match`` in its message."""
    try:
        call()
    except error as exc:
        assert match in str(exc)
        return False
    return True


def diag(*entries) -> np.ndarray:
    return np.diag(entries).astype(complex)


def upper(eps: float, a: float = 1.0, b: float = 1.0) -> np.ndarray:
    """``[[a, eps], [0, b]]``: ``max |M - M^dagger| = eps``."""
    return np.array([[a, eps], [0.0, b]], dtype=complex)


def tilted(delta: float) -> np.ndarray:
    """The unit column along ``(delta, 1)``: its overlap with ``e0`` is about delta."""
    return np.array([[delta], [1.0]], dtype=complex) / np.hypot(delta, 1.0)


def block_mixture(eps: float, tol) -> bool:
    """A fixed state whose 3-dim block weight is ``-eps``: a mixture only when
    the weight clamp accepts it."""
    ch = direct_sum(identity_channel(1), random_unital_channel(3, 3, seed=4))
    rho = diag(1 + eps, -eps / 3, -eps / 3, -eps / 3)
    return isinstance(classify_fixed_state(ch, rho, iris_decompose(ch), tol), BlockMixture)


def eigengap_redraw(eps: float, tol) -> bool:
    """Whether the spin-up redraws the element ``diag(0, eps)`` of an
    irreducible qubit channel's algebra: its one block, C^2, sees the gap eps."""
    a = random_unital_channel(2, 3, seed=1).kraus
    spun = decomposition._spin_blocks(a, diag(0.0, eps), np.random.default_rng(0), tol,
                                      tol.nullspace)
    return spun is None


def two_components(eps: float, tol) -> bool:
    """Whether the ray decompositions {e0, e1} and {tilted(sqrt(eps)), its
    complement} of C^2, whose crossing rays overlap with mass about eps,
    match as two components."""
    delta = np.sqrt(eps)
    complement = np.array([[1.0], [-delta]], dtype=complex) / np.hypot(delta, 1.0)
    e = np.eye(2, dtype=complex)
    d1 = IrisDecomposition(2, (Subspace(2, e[:, :1]), Subspace(2, e[:, 1:])), ((0, 1),))
    d2 = IrisDecomposition(2, (Subspace(2, tilted(delta)), Subspace(2, complement)), ((0, 1),))
    return len(match_decompositions(d1, d2, tol).components) == 2


def span_drops(eps: float, tol) -> bool:
    """Whether span({e0, e0 + eps e1}) drops the second column as negligible."""
    return Subspace.span(np.array([[1.0, 1.0], [0.0, eps]], dtype=complex)).dim == 1


# (id, field, modules whose DEFAULT_TOL is the tolerance, verdict(eps, tol))
ROUTES = [
    ("hermitian_eig", "hermitian", (),
     lambda e, t: passes(lambda: hermitian_eig(upper(e), t), NotHermitian, "Hermitian")),
    ("projector-hermitian", "hermitian", (),
     lambda e, t: passes(lambda: projection_intertwines(identity_channel(2), upper(e, b=0.0), t),
                         NotAProjector, "Hermitian")),
    ("povm-hermitian", "hermitian", (),
     lambda e, t: passes(lambda: Povm(2, (upper(e, 0.5, 0.5), diag(0.5, 0.5)), t),
                         InvalidMeasurement, "element 0 is not Hermitian")),
    ("projective-hermitian", "hermitian", (),
     lambda e, t: passes(lambda: ProjectiveMeasurement(2, (upper(e, b=0.0), diag(0, 1)), t),
                         InvalidMeasurement, "projector 0 is not Hermitian")),
    ("operator-hermitian", "hermitian", (),
     lambda e, t: passes(lambda: statistics_preserved(identity_channel(2), upper(e), t),
                         NotPSD, "Hermitian")),
    ("state-hermitian", "hermitian", (),
     lambda e, t: passes(lambda: density_matrix(upper(e, 0.5, 0.5), t),
                         NotADensityMatrix, "Hermitian")),
    ("povm-psd", "residual", (),
     lambda e, t: passes(lambda: Povm(2, (diag(1 + e, -e), diag(-e, 1 + e)), t),
                         InvalidMeasurement, "minimum eigenvalue")),
    ("operator-psd", "residual", (),
     lambda e, t: passes(lambda: statistics_preserved(identity_channel(2), diag(1, -e), t),
                         NotPSD, "minimum eigenvalue")),
    ("state-psd", "residual", (),
     lambda e, t: passes(lambda: density_matrix(diag(1 + e, -e), t),
                         NotADensityMatrix, "minimum eigenvalue")),
    ("weight-clamp", "residual", (), block_mixture),
    ("povm-sum", "residual", (),
     lambda e, t: passes(lambda: Povm(2, (diag(0.5, 0.5), diag(0.5 + e, 0.5)), t),
                         InvalidMeasurement, "sum to the identity")),
    ("projective-idempotent", "residual", (),
     lambda e, t: passes(lambda: ProjectiveMeasurement(2, (diag(1 - e, e), diag(e, 1 - e)), t),
                         InvalidMeasurement, "idempotent")),
    ("projective-orthogonal", "residual", (),
     lambda e, t: passes(lambda: ProjectiveMeasurement(2, (diag(1, 0), tilted(e) @ tilted(e).T),
                                                       t),
                         InvalidMeasurement, "not orthogonal")),
    ("projector-idempotent", "residual", (),
     lambda e, t: passes(lambda: projection_intertwines(identity_channel(2), diag(1 + e, 0), t),
                         NotAProjector, "idempotent")),
    ("state-trace", "residual", (),
     lambda e, t: passes(lambda: density_matrix(diag(0.5 + e, 0.5), t),
                         NotADensityMatrix, "trace")),
    ("pure-state-norm", "residual", (),
     lambda e, t: passes(lambda: fixed_pure_state_check(dephasing_channel(2), [1 + e, 0], t),
                         NotNormalized, "not 1")),
    ("unitary", "residual", (),
     lambda e, t: passes(lambda: unitary_channel(diag(1 + e / 2, 1), t), NotUnitary, "max")),
    ("subspace-orthonormal", "residual", (decomposition,),
     lambda e, t: passes(lambda: Subspace(2, [[1 + e / 2], [0]]), NotOrthonormal, "max")),
    ("complement-orthonormal", "residual", (linalg,),
     lambda e, t: passes(lambda: orthonormal_complement([[1 + e / 2], [0]], 2),
                         NotOrthonormal, "max")),
    ("blocks-orthogonal", "residual", (decomposition,),
     lambda e, t: passes(lambda: IrisDecomposition(
                             2, (Subspace(2, [[1], [0]]), Subspace(2, tilted(e))), ((0, 1),)),
                         NotOrthonormal, "max")),
    ("match-overlap", "residual", (), two_components),
    ("eigengap-redraw", "eigencluster", (), eigengap_redraw),
    ("span-rank", "nullspace", (decomposition,), span_drops),
]


@pytest.mark.parametrize("field, modules, verdict", [r[1:] for r in ROUTES],
                         ids=[r[0] for r in ROUTES])
def test_decision_reads_its_field(monkeypatch, field, modules, verdict):
    default = getattr(DEFAULT_TOL, field)

    def decide(scale: float, tol_scale: float) -> bool:
        tol = replace(DEFAULT_TOL, **{field: tol_scale * default})
        for module in modules:
            monkeypatch.setattr(module, "DEFAULT_TOL", tol)
        return verdict(scale * default, tol)

    assert decide(0.5, 1.0)
    assert not decide(2.0, 1.0)
    assert decide(2.0, 4.0)
    assert not decide(0.5, 0.25)


# ---------------------------------------------------------------------------
# no private cutoffs: an AST guard over the package sources
# ---------------------------------------------------------------------------

# the optimizers' step-size, Armijo, stall and eigenvalue-floor constants set
# their paths, pinned by the golden optimizer corpus; they decide no verdict
EXEMPT = {
    ("capacity.py", "_entropy_bits"),
    ("capacity.py", "_sphere_descent"),
    ("capacity.py", "_state_ascent"),
}


def _small(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-3)


def _cutoffs(path: Path) -> set:
    """(file, enclosing function) of every comparison that holds a float literal
    below 1e-3, or a module constant bound to one."""
    tree = ast.parse(path.read_text())
    constants = {
        target.id
        for node in tree.body if isinstance(node, ast.Assign) and _small(node.value)
        for target in node.targets if isinstance(target, ast.Name)
    }
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for cmp in ast.walk(func):
            if isinstance(cmp, ast.Compare) and any(
                _small(n) or (isinstance(n, ast.Name) and n.id in constants)
                for n in ast.walk(cmp)
            ):
                found.add((path.name, func.name))
    return found


def test_no_literal_cutoff_in_a_verdict():
    sources = sorted(Path(krausblocks.__file__).parent.glob("*.py"))
    found = set().union(*map(_cutoffs, sources))
    assert found - EXEMPT == set()
    assert found >= EXEMPT  # the guard sees the literals it exempts
