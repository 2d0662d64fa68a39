"""Independent correctness checks of the CLI reports.

Each check recomputes what it needs with the harness's own numpy code and
the construction recorded in ``workloads``; none calls ``krausblocks`` and
none compares against a stored copy of an earlier report. A check returns a
list of problems, empty when the report is correct.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import SMIN_RESTARTS, Channel, Op, Workload, unwire

# The CLI decides with tol.residual = 1e-9 and reports to 17 digits; a true
# identity holds to ~1e-13 here, and a true violation exceeds ~1e-3.
EXACT = 1e-8
OPTIMIZER = 1e-4  # tol.optimizer, in bits
PRESERVE_CUTOFF = 1e-9  # the CLI's default tol.residual


def entropy_bits(rho: np.ndarray) -> float:
    lam = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    lam = lam[lam > 1e-18]
    return float(-np.sum(lam * np.log2(lam)))


def renyi_bits(rho: np.ndarray, alpha: float) -> float:
    if alpha == 1:
        return entropy_bits(rho)
    lam = np.clip(np.linalg.eigvalsh((rho + rho.conj().T) / 2), 0.0, None)
    return float(np.log2(np.sum(lam**alpha)) / (1 - alpha))


def apply(kraus, rho: np.ndarray) -> np.ndarray:
    return sum(a @ rho @ a.conj().T for a in kraus)


def exchange(kraus, rho: np.ndarray) -> np.ndarray:
    """W_ij = tr(A_i rho A_j^dagger): the environment's state."""
    k = np.array(kraus)
    return np.einsum("iab,bc,jac->ij", k, rho, k.conj())


def mutual_information(kraus, rho) -> float:
    return entropy_bits(rho) + entropy_bits(apply(kraus, rho)) - entropy_bits(exchange(kraus, rho))


def coherent_info(kraus, rho) -> float:
    return entropy_bits(apply(kraus, rho)) - entropy_bits(exchange(kraus, rho))


def fixed_dimension(kraus) -> int:
    """d^2 - rank(L - I) for the superoperator L = sum conj(A) kron A."""
    d = kraus[0].shape[0]
    sup = sum(np.kron(a.conj(), a) for a in kraus) - np.eye(d * d)
    s = np.linalg.svd(sup, compute_uv=False)
    return int(d * d - np.sum(s > 1e-8 * max(1.0, s[0])))


def _max(m) -> float:
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


# ---------------------------------------------------------------------------
# per-report checks
# ---------------------------------------------------------------------------


def check_blocks(ch: Channel, dec: dict, commutant_count: int | None, cache: dict) -> list[str]:
    """Block structure: dimensions, orthonormal spanning bases, block-diagonal
    Kraus operators, and the commutant count against d^2 - rank(L - I)."""
    errs = []
    d = ch.dim
    dims = dec["block_dims"]
    if sorted(dims) != sorted(ch.dims):
        errs.append(f"block dims {dims} != construction {sorted(ch.dims)}")
    if [b["dim"] for b in dec["blocks"]] != dims:
        errs.append("block entries disagree with block_dims")
    if any(c != 1 for c in dec["certificates"]):
        errs.append(f"certificates {dec['certificates']} are not all 1")
    bases = [unwire(b["basis"], d, b["dim"]) for b in dec["blocks"]]
    if sum(b.shape[1] for b in bases) != d:
        return errs + ["blocks do not add up to the ambient dimension"]
    q = np.hstack(bases)
    if _max(q.conj().T @ q - np.eye(d)) > EXACT:
        errs.append("block bases are not orthonormal, mutually orthogonal and spanning")
    for j, bj in enumerate(bases):
        for k, bk in enumerate(bases):
            if j != k and max(_max(bj.conj().T @ a @ bk) for a in ch.kraus) > EXACT:
                errs.append(f"Kraus operators couple blocks {j} and {k}")
    truth = ch.projectors()
    for j, b in enumerate(bases):
        p = b @ b.conj().T
        if min(_max(p - t) for t in truth) > 1e-7:
            errs.append(f"block {j} is not a construction block")
    if commutant_count is not None:
        if ch.name not in cache:
            cache[ch.name] = fixed_dimension(ch.kraus)
        if commutant_count != cache[ch.name]:
            errs.append(f"commutant_count {commutant_count} != d^2 - rank(L - I) = {cache[ch.name]}")
    return errs


def check_validate(ch: Channel, rep: dict) -> list[str]:
    v = rep["validation"]
    errs = []
    if rep["dim"] != ch.dim or rep["n_kraus"] != len(ch.kraus):
        errs.append("dim or n_kraus differs from the input")
    if not (v["is_trace_preserving"] and v["is_unital"]):
        errs.append("a unital trace-preserving channel was rejected")
    tp = _max(sum(a.conj().T @ a for a in ch.kraus) - np.eye(ch.dim))
    un = _max(sum(a @ a.conj().T for a in ch.kraus) - np.eye(ch.dim))
    if abs(v["tp_residual"] - tp) > EXACT or abs(v["unital_residual"] - un) > EXACT:
        errs.append("residuals differ from max|sum A^dagger A - I| / max|sum A A^dagger - I|")
    return errs


def check_fixed_states(ch: Channel, rep: dict, weights: list[float], cache: dict) -> list[str]:
    errs = check_blocks(ch, rep["decomposition"], rep["commutant_count"], cache)
    for bb, blk in zip(rep["building_blocks"], rep["decomposition"]["blocks"]):
        if bb["dim"] != blk["dim"] or abs(bb["uniform_weight"] - blk["dim"] / ch.dim) > 1e-15:
            errs.append("building block weights are not dim_j / d")
    cls = rep.get("classification", {})
    if cls.get("type") != "block_mixture":
        return errs + [f"fixed block mixture classified as {cls.get('type')}"]
    # blocks have distinct dimensions, so a dimension names a block
    expected = dict(zip(ch.dims, weights))
    got = [expected.get(b["dim"], np.nan) for b in rep["decomposition"]["blocks"]]
    if len(ch.dims) == len(set(ch.dims)) and not np.allclose(cls["weights"], got, atol=EXACT, rtol=0):
        errs.append(f"weights {cls['weights']} != mixed weights {got}")
    if abs(sum(cls["weights"]) - 1) > EXACT:
        errs.append("weights do not sum to 1")
    return errs


def check_match(ch: Channel, rep: dict) -> list[str]:
    """Every pair joins blocks of equal dimension; the construction's blocks
    have distinct dimensions, so equal dimension means the same (hence
    overlapping) block on both sides."""
    errs = []
    n = len(ch.dims)
    left, right = rep["left_dims"], rep["right_dims"]
    if sorted(left) != sorted(ch.dims) or sorted(right) != sorted(ch.dims):
        errs.append(f"matched dims {left} / {right} != construction {sorted(ch.dims)}")
    pairs = rep["bijection"]
    if sorted(l for l, _ in pairs) != list(range(n)) or sorted(r for _, r in pairs) != list(range(n)):
        errs.append("bijection is not one-to-one over all blocks")
    elif any(left[l] != right[r] for l, r in pairs):
        errs.append("bijection pairs blocks of different dimensions")
    if len(set(ch.dims)) == n and len(rep["components"]) != n:
        errs.append("blocks of distinct dimensions must match one to one")
    for comp in rep["components"]:
        if sorted(left[i] for i in comp["left"]) != sorted(right[j] for j in comp["right"]):
            errs.append("a component's dimension multisets differ")
    return errs


def check_restrict(ch: Channel, rep: dict, block: int, rng: np.random.Generator) -> list[str]:
    errs = []
    d, m = ch.dim, rep["block_dim"]
    if m != sorted(ch.dims)[block]:
        errs.append(f"block {block} has dim {m}, construction block {sorted(ch.dims)[block]}")
    b = unwire(rep["block_basis"], d, m)
    c = [unwire(k, m, m) for k in rep["channel"]["kraus"]]
    eye = np.eye(m)
    if _max(sum(a.conj().T @ a for a in c) - eye) > EXACT:
        errs.append("restricted channel is not trace preserving")
    if _max(sum(a @ a.conj().T for a in c) - eye) > EXACT:
        errs.append("restricted channel is not unital")
    for _ in range(3):
        z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        rho = z @ z.conj().T
        rho /= np.trace(rho).real
        want = b.conj().T @ apply(ch.kraus, b @ rho @ b.conj().T) @ b
        if _max(apply(c, rho) - want) > EXACT:
            errs.append("restricted channel differs from B^dagger phi(B rho B^dagger) B")
            break
    return errs


def check_measurement(ch: Channel, m, rep: dict) -> list[str]:
    errs = []
    elems = rep["elements"]
    if len(elems) != len(m.elements) or rep["measurement_type"] != m.type:
        return [f"report describes a different measurement ({rep['measurement_type']}, {len(elems)})"]
    verdicts = []
    for k, (e, er, want) in enumerate(zip(m.elements, elems, m.preserved)):
        residual = _max(sum(a.conj().T @ e @ a for a in ch.kraus) - e)
        mine = residual <= PRESERVE_CUTOFF
        verdicts.append(mine)
        if er["preserved"] != mine:
            errs.append(f"element {k}: preserved={er['preserved']}, max|phi^dagger(E) - E| = {residual:.3e}")
        if want is not None and mine != want:
            errs.append(f"element {k}: construction says preserved={want}, residual {residual:.3e}")
        if er["preserved"] and "terms" in er:
            total = np.zeros_like(e)
            for t in er["terms"]:
                b = unwire(t["basis"], ch.dim, t["dim"])
                total += t["weight"] * (b @ b.conj().T)
            if _max(total - e) > 1e-7:
                errs.append(f"element {k}: terms do not add up to the element")
    if rep["all_preserved"] != all(verdicts):
        errs.append("all_preserved disagrees with the elements")
    if m.type == "projective" and rep["ranges_invariant"] != all(verdicts):
        errs.append("ranges_invariant disagrees with the elements")
    return errs


def depolarizing_closed_forms(d: int, p: float) -> dict[str, float]:
    """smin (alpha 1 and 2) and C_E of (1-p) rho + p I/d."""
    lam = np.array([1 - p + p / d] + [p / d] * (d - 1))
    choi = np.array([1 - p + p / d**2] + [p / d**2] * (d * d - 1))
    return {
        "smin1": float(-np.sum(lam * np.log2(lam))),
        "smin2": float(-np.log2(np.sum(lam**2))),
        "ce": float(2 * np.log2(d) + np.sum(choi * np.log2(choi))),
    }


def check_capacity(ch: Channel, rep: dict, quantity: str, rng: np.random.Generator) -> list[str]:
    errs = []
    q = rep["quantity"]
    dims = rep["block_dims"]
    if sorted(dims) != sorted(ch.dims):
        errs.append(f"block dims {dims} != construction {sorted(ch.dims)}")
    values = q["per_block"]
    rule = {"smin1": min, "smin2": min, "coh": max,
            "ce": lambda v: float(np.log2(np.sum(np.exp2(v))))}[quantity]
    if abs(q["combined_bits"] - rule(values)) > 1e-12:
        errs.append(f"combined_bits {q['combined_bits']} breaks the block rule over {values}")
    # construction blocks in the CLI's order: ascending dimension
    blocks = [b for _, b in sorted(zip(ch.dims, ch.blocks), key=lambda t: t[0])]
    for j, (mj, kraus) in enumerate(zip(dims, blocks)):
        v = values[j]
        mixed = np.eye(mj) / mj
        if quantity in ("smin1", "smin2"):
            alpha = 1.0 if quantity == "smin1" else 2.0
            upper = np.inf
            for _ in range(16):
                x = rng.standard_normal(mj) + 1j * rng.standard_normal(mj)
                x /= np.linalg.norm(x)
                upper = min(upper, renyi_bits(apply(kraus, np.outer(x, x.conj())), alpha))
            if not -OPTIMIZER <= v <= upper + OPTIMIZER:
                errs.append(f"block {j}: smin {v} not within [0, {upper}] (random pure inputs)")
        elif quantity == "ce":
            lower = mutual_information(kraus, mixed)
            if not lower - OPTIMIZER <= v <= 2 * np.log2(mj) + OPTIMIZER:
                errs.append(f"block {j}: C_E {v} not within [I(I/d), 2 log2 d] = [{lower}, {2 * np.log2(mj)}]")
        else:
            lower = max(0.0, coherent_info(kraus, mixed))
            if v < lower - OPTIMIZER:
                errs.append(f"block {j}: coherent information {v} below max(0, I_c(I/d)) = {lower}")
    if ch.kind == "depolarizing":
        want = depolarizing_closed_forms(ch.dim, ch.p)
        if quantity in want and abs(q["combined_bits"] - want[quantity]) > OPTIMIZER:
            errs.append(f"depolarizing {quantity} {q['combined_bits']} != closed form {want[quantity]}")
    if quantity.startswith("smin") and q.get("restarts") != SMIN_RESTARTS:
        errs.append("restart count differs from the request")
    return errs


def check_op(wl: Workload, op: Op, text: str, rng: np.random.Generator, cache: dict) -> list[str]:
    """All checks that apply to one operation's stdout report."""
    try:
        rep = json.loads(text)
    except json.JSONDecodeError:
        return ["stdout is not one JSON report"]
    if "error" in rep:
        return [f"error report: {rep['error']}"]
    if rep.get("command") != op.verb:
        return [f"report is for {rep.get('command')!r}, not {op.verb!r}"]
    ch = wl.channels[op.channel]
    if op.verb == "validate":
        return check_validate(ch, rep)
    if op.verb == "decompose":
        return check_blocks(ch, rep["decomposition"], rep["commutant_count"], cache)
    if op.verb == "fixed-states":
        return check_fixed_states(ch, rep, wl.states[op.params["state"]][1], cache)
    if op.verb == "match":
        return check_match(ch, rep)
    if op.verb == "restrict":
        return check_restrict(ch, rep, op.params["block"], rng)
    if op.verb == "check-measurement":
        return check_measurement(ch, wl.measurements[op.params["measurement"]], rep)
    if op.verb == "capacity":
        return check_capacity(ch, rep, op.params["quantity"], rng)
    return [f"no check for verb {op.verb!r}"]
