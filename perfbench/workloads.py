"""Seeded problem generator and the three benchmark workloads.

Every workload is a closed loop with one client: the benchmark starts the
next command only after the previous one has exited.  The compiler sees only
the problem files written here; the same (workload, seed) always gives the
same files.

Common parameters unless a problem says otherwise: resource couplings
g ~ U(0.5, 1.5), evolution time 0.7, target weights N(0, 1).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

TIME = 0.7


@dataclass(frozen=True)
class ProblemSpec:
    """One generated problem: size, target kind and edge density."""

    num_qubits: int
    kind: str              # "ata" (weighted graph) or "nn" (chain angles)
    density: float = 1.0   # share of the L(L-1)/2 edges present (ata only)


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple[ProblemSpec, ...]
    followups: tuple[str, ...]     # CLI commands run after `compile`


def _dense(L: int) -> ProblemSpec:
    return ProblemSpec(L, "ata", 1.0)


def _sparse(L: int, density: float) -> ProblemSpec:
    return ProblemSpec(L, "ata", density)


WORKLOADS = {
    w.name: w
    for w in (
        # Dense all-to-all at L=96 (L=128 is too slow for a 40 s run): time
        # goes to the per-block scheduler loop and the one-line-per-mask-bit
        # emitter (45 MB files), with `stats` reading them back.  Dense
        # verification is out of reach, so a verifier change must leave this
        # workload unchanged.
        Workload("even-large", (_dense(96), _dense(96)), ("stats",)),
        # Odd L takes the per-path sorting-network route with no gate
        # cancellation, so circuit build/lower and swap synthesis weigh more;
        # absent edges give zero-weight slots whose tied blocks the scheduler
        # drops.  One L=31 and two L=33 problems keep the median of each
        # command inside the L=33 cluster instead of between two sizes.
        Workload("odd-sparse", (_sparse(31, 0.3), _sparse(33, 0.3), _sparse(33, 0.3)), ("stats",)),
        # L=5..8, even and odd, dense and sparse, plus a minority of chain
        # targets, each verified: the time is the dense 80-bit evaluation in
        # `unitaries` plus interpreter start-up.  Weighted towards L=7 and 8,
        # where verification dominates.  `stats` also runs, for the counter
        # cross-check.
        Workload(
            "small-verified",
            (_sparse(5, 0.5), _dense(6), _dense(7), _sparse(7, 0.5),
             _dense(8), _sparse(8, 0.5), _dense(8), _sparse(8, 0.5),
             ProblemSpec(6, "nn"), ProblemSpec(7, "nn")),
            ("stats", "verify"),
        ),
    )
}

# One L <= 8 member of each large workload's family.  The traced run verifies
# it so that the `unitaries` spans are measured on every workload; the timed
# run never uses it.
PROBES = {
    "even-large": _dense(8),
    "odd-sparse": _sparse(7, 0.3),
    "small-verified": None,
}


def generate(spec: ProblemSpec, rng: random.Random) -> dict:
    """Problem document for one spec, drawn from `rng`."""
    L = spec.num_qubits
    resource = [rng.uniform(0.5, 1.5) for _ in range(L - 1)]
    if spec.kind == "nn":
        target = {"type": "nn", "angles": [TIME * rng.gauss(0.0, 1.0) for _ in range(L - 1)]}
    else:
        couplings = []
        for i in range(L):
            for j in range(i + 1, L):
                present = spec.density >= 1.0 or rng.random() < spec.density
                if present:
                    couplings.append({"i": i, "j": j, "value": rng.gauss(0.0, 1.0)})
        target = {"type": "ata", "couplings": couplings}
    return {"num_qubits": L, "resource_couplings": resource, "target": target, "time": TIME}


def rng_for(workload: str, seed: int, index: int | str) -> random.Random:
    # String seeds hash through SHA-512, so draws do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}/{seed}/{index}")


def write_problems(workload: Workload, seed: int, directory: Path) -> list[Path]:
    """Write the workload's problem files; returns their paths in order."""
    paths = []
    for index, spec in enumerate(workload.problems):
        doc = generate(spec, rng_for(workload.name, seed, index))
        path = directory / f"p{index:02d}_L{spec.num_qubits}_{spec.kind}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(path)
    return paths


def write_probe(workload: Workload, seed: int, directory: Path) -> Path | None:
    spec = PROBES[workload.name]
    if spec is None:
        return None
    path = directory / f"probe_L{spec.num_qubits}_{spec.kind}.json"
    path.write_text(json.dumps(generate(spec, rng_for(workload.name, seed, "probe"))), encoding="utf-8")
    return path
