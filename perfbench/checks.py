"""Correctness checks that share no code with the compiler.

The schedule file format is the only contract: single-qubit layers (`x`, `h`,
`r` = H S H, `rz`(theta) = exp(i theta Z / 2)) and resource blocks, each an
evolution exp(+i d sum_j g_j Z_j Z_{j+1}) conjugated by X where `x_mask` is
true.  Qubit q is bit q of a basis index; bit 0 is spin +1.

* `frame_ledger` works at any L.  It walks the schedule with a Pauli frame
  (the Heisenberg image of every X_q and Z_q under the Clifford part seen so
  far, as bit-packed Python ints).  Each run of consecutive blocks sums to
  one ZZ angle per chain slot.  A slot term whose pull-back through the frame
  is still a Z string is an edge term and goes to the ledger; any other term
  must have a Clifford angle (a multiple of pi/4) and is folded into the
  frame.  That is how qubit positions are tracked through the lowered iSWAP
  layers.  The schedule is exact when the final frame is the identity and
  every ledger entry equals t*g of its edge modulo pi.
* `dense_check` evaluates the whole unitary at L <= 8 with its own state
  vectors and compares it with the diagonal target.
* `schedule_counts` and `cross_check_counters` count the loaded schedule.
"""

from __future__ import annotations

import json
import math
from itertools import product
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
QUARTER = math.pi / 4.0

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0 + 0j, -1.0])
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_S = np.diag([1.0 + 0j, 1j])
GATES = {"x": _X, "h": _H, "r": _H @ _S @ _H}


def _rz(theta: float) -> np.ndarray:
    return np.diag(np.exp(1j * np.array([theta / 2.0, -theta / 2.0])))


def _pauli_image(gate: np.ndarray, pauli: np.ndarray) -> tuple[int, int, int]:
    """(x, z, e) with gate^dag pauli gate = i^e X^x Z^z."""
    image = gate.conj().T @ pauli @ gate
    for x, z, e in product((0, 1), (0, 1), range(4)):
        cand = (1j ** e) * np.linalg.matrix_power(_X, x) @ np.linalg.matrix_power(_Z, z)
        if np.allclose(image, cand):
            return x, z, e
    raise ValueError("gate is not a single-qubit Clifford")


# Conjugation table of every named Clifford gate: images of X and of Z.
CLIFFORD_TABLE = {name: (_pauli_image(m, _X), _pauli_image(m, _Z)) for name, m in GATES.items()}


def load_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def target_edges(problem: dict) -> dict[tuple[int, int], float]:
    """Exact edge angles the schedule must realise: t*g, or the chain angles."""
    target = problem["target"]
    if target["type"] == "nn":
        return {(j, j + 1): float(a) for j, a in enumerate(target["angles"])}
    t = float(problem["time"])
    return {(c["i"], c["j"]): t * float(c["value"]) for c in target["couplings"]}


def block_runs(doc: dict):
    """Yield ("sqr", gates) and ("blocks", [block, ...]) for maximal block runs."""
    run: list[dict] = []
    for instr in doc["instructions"]:
        if "resource_block" in instr:
            run.append(instr["resource_block"])
            continue
        if run:
            yield "blocks", run
            run = []
        yield "sqr", instr["sqr"]
    if run:
        yield "blocks", run


def run_slot_angles(run: list[dict], couplings: np.ndarray) -> np.ndarray:
    """Per-slot ZZ angle a run of blocks realises: sum_n d_n g_j s_nj."""
    durations = np.array([b["duration"] for b in run], dtype=float)
    masks = np.array([b["x_mask"] for b in run], dtype=bool)
    signs = 1.0 - 2.0 * (masks[:, :-1] ^ masks[:, 1:])
    return (durations @ signs) * couplings


def _mul(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """Product of i^e X^x Z^z Paulis with bit-packed x and z."""
    return a[0] ^ b[0], a[1] ^ b[1], (a[2] + b[2] + 2 * (a[1] & b[0]).bit_count()) & 3


class PauliFrame:
    """Images of X_q and Z_q under the Clifford part of the schedule so far."""

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        self.xs = [(1 << q, 0, 0) for q in range(num_qubits)]
        self.zs = [(0, 1 << q, 0) for q in range(num_qubits)]

    def _image(self, q: int, img: tuple[int, int, int]) -> tuple[int, int, int]:
        x, z, e = img
        out = (0, 0, e)
        if x:
            out = _mul(out, self.xs[q])
        if z:
            out = _mul(out, self.zs[q])
        return out

    def gate(self, name: str, q: int) -> None:
        x_img, z_img = CLIFFORD_TABLE[name]
        self.xs[q], self.zs[q] = self._image(q, x_img), self._image(q, z_img)

    def clifford_rotation(self, anticommuting: list[int], pulled: tuple[int, int, int], k: int) -> None:
        """Fold exp(i k pi/4 Q) into the frame; `anticommuting` lists the q whose X_q anticommutes with Q."""
        k %= 4
        if k == 0:
            return
        for q in anticommuting:
            if k == 2:                       # exp(i pi/2 Q) = iQ flips the sign of X_q
                x, z, e = self.xs[q]
                self.xs[q] = (x, z, (e + 2) & 3)
            else:                            # X_q -> i s X_q Q with s = sin(k pi/2)
                x, z, e = _mul(self.xs[q], pulled)
                self.xs[q] = (x, z, (e + (1 if k == 1 else 3)) & 3)

    def is_identity(self) -> bool:
        return all(self.xs[q] == (1 << q, 0, 0) and self.zs[q] == (0, 1 << q, 0)
                   for q in range(self.num_qubits))


def _off_by(value: float, expected: float, period: float | None = None) -> float:
    d = value - expected
    if period:
        d -= period * round(d / period)
    return abs(d)


def frame_ledger(problem: dict, doc: dict) -> list[str]:
    """Check a schedule of any size against its problem; returns failures."""
    L = problem["num_qubits"]
    couplings = np.array(problem["resource_couplings"], dtype=float)
    expected = target_edges(problem)
    failures: list[str] = []
    frame = PauliFrame(L)
    ledger: dict[tuple[int, int], float] = {}
    singles = [0.0] * L

    def rotate(anticommuting: list[int], pulled, phi: float, scale: float, where: str):
        x, z, e = pulled
        if x == 0:                           # still a Z string: an edge term
            if e not in (0, 2):
                failures.append(f"{where}: non-Hermitian pull-back")
                return
            v = phi if e == 0 else -phi
            support = [q for q in range(L) if z >> q & 1]
            if len(support) == 2:
                edge = (support[0], support[1])
                want = expected.get(edge, 0.0)
                if min(_off_by(v, want), abs(v)) > REL_TOL * scale:
                    failures.append(f"{where}: edge {edge} slot angle {v!r}, target {want!r} or 0")
                ledger[edge] = ledger.get(edge, 0.0) + v
            elif len(support) == 1:
                singles[support[0]] += v
            elif support:
                failures.append(f"{where}: Z term on {len(support)} qubits")
            return
        k = round(phi / QUARTER)
        if _off_by(phi, k * QUARTER) > REL_TOL * max(scale, QUARTER):
            failures.append(f"{where}: non-Z term with non-Clifford angle {phi!r}")
            return
        frame.clifford_rotation(anticommuting, pulled, k)

    for index, (kind, body) in enumerate(block_runs(doc)):
        where = f"run {index}"
        if kind == "sqr":
            for g in body:
                if g["gate"] == "rz":
                    rotate([g["q"]], frame.zs[g["q"]], g["angle"] / 2.0, abs(g["angle"]), where)
                else:
                    frame.gate(g["gate"], g["q"])
            continue
        phis = run_slot_angles(body, couplings)
        scale = float(np.max(np.abs(phis)))
        # The slot terms of one run commute and each Clifford rotation only
        # rewrites X rows, so every slot can be pulled back before any fold.
        pulled = [_mul(frame.zs[j], frame.zs[j + 1]) for j in range(L - 1)]
        for j, phi in enumerate(phis):
            if phi != 0.0:
                rotate([j, j + 1], pulled[j], float(phi), scale, f"{where} slot {j}")
        if len(failures) > 20:
            break

    if not frame.is_identity():
        failures.append("the Clifford frame does not return to the identity")
    edge_tol = REL_TOL * max(1.0, max((abs(v) for v in expected.values()), default=0.0))
    for edge in set(expected) | set(ledger):
        got, want = ledger.get(edge, 0.0), expected.get(edge, 0.0)
        if _off_by(got, want, math.pi) > edge_tol:
            failures.append(f"edge {edge}: ledger {got!r}, target {want!r} (mod pi)")
    for q, v in enumerate(singles):
        if _off_by(v, 0.0, math.pi) > edge_tol:
            failures.append(f"qubit {q}: stray single-Z angle {v!r}")
    return failures[:20]


# --- dense oracle -----------------------------------------------------------

def _apply_1q(u: np.ndarray, mat: np.ndarray, q: int) -> np.ndarray:
    dim = u.shape[0]
    u3 = u.reshape(dim >> (q + 1), 2, -1)
    return np.einsum("ab,ibj->iaj", mat, u3).reshape(dim, dim)


def dense_check(problem: dict, doc: dict, tol: float = REL_TOL) -> str | None:
    """Full-unitary comparison for L <= 8; returns a failure or None."""
    L = problem["num_qubits"]
    dim = 1 << L
    index = np.arange(dim)
    spins = 1 - 2 * ((index[:, None] >> np.arange(L)) & 1)
    chain = spins[:, :-1] * spins[:, 1:]
    couplings = np.array(problem["resource_couplings"], dtype=float)
    u = np.eye(dim, dtype=complex)
    for instr in doc["instructions"]:
        if "sqr" in instr:
            for g in instr["sqr"]:
                mat = _rz(g["angle"]) if g["gate"] == "rz" else GATES[g["gate"]]
                u = _apply_1q(u, mat, g["q"])
        else:
            block = instr["resource_block"]
            flip = sum(1 << q for q, bit in enumerate(block["x_mask"]) if bit)
            phase = np.exp(1j * block["duration"] * (chain @ couplings))
            u = phase[index ^ flip][:, None] * u      # X_mask D X_mask = D(b ^ mask)
    phases = np.zeros(dim)
    for (i, j), angle in target_edges(problem).items():
        phases += angle * spins[:, i] * spins[:, j]
    target = np.exp(1j * phases)
    overlap = np.vdot(target, np.diag(u))
    if abs(overlap) == 0.0:
        return "schedule unitary is orthogonal to the target"
    diff = u.copy()
    diff[index, index] -= (overlap / abs(overlap)) * target
    err = float(np.max(np.abs(diff)))
    return None if err <= tol else f"dense oracle: max entry error {err:.3e} > {tol:.0e}"


# --- counters ---------------------------------------------------------------

def schedule_counts(doc: dict) -> dict:
    blocks = sqr = runs = 0
    total = 0.0
    for kind, body in block_runs(doc):
        if kind == "sqr":
            sqr += len(body)
        else:
            runs += 1
            blocks += len(body)
            for b in body:
                total += b["duration"]
    return {"resource_blocks": blocks, "sqr_gates": sqr, "total_analog_time": total, "block_runs": runs}


def cross_check_counters(problem: dict, stats_out: dict, meta: dict, own: dict) -> list[str]:
    """`stats` output, the schedule's metadata.stats and our own count must agree."""
    failures = []
    if stats_out.get("num_qubits") != problem["num_qubits"]:
        failures.append("stats: wrong num_qubits")
    if stats_out.get("target_type") != problem["target"]["type"]:
        failures.append("stats: wrong target_type")
    for key in ("resource_blocks", "sqr_gates"):
        if not stats_out.get(key) == meta.get(key) == own[key]:
            failures.append(f"{key}: stats {stats_out.get(key)}, metadata {meta.get(key)}, counted {own[key]}")
    values = (stats_out.get("total_analog_time"), meta.get("total_analog_time"), own["total_analog_time"])
    if any(not isinstance(v, (int, float)) for v in values) or \
            max(values) - min(values) > 1e-12 * max(1.0, abs(max(values))):
        failures.append(f"total_analog_time disagrees: {values}")
    requests = meta.get("analog_requests")
    # A request whose angles are all zero leaves no block, so our run count
    # is only a lower bound on the compiler's request count.
    if stats_out.get("analog_requests") != requests or not isinstance(requests, int) \
            or own["block_runs"] > requests:
        failures.append(f"analog_requests: stats {stats_out.get('analog_requests')}, "
                        f"metadata {requests}, block runs {own['block_runs']}")
    return failures
