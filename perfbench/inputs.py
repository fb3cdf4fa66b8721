"""Seeded inputs for the workloads.

Every input the program receives is made here from the benchmark seed:
the experiment order of a full-registry run, the edit loop's one-parameter
perturbations, and the served request mix.  The same seed gives the same
inputs; different seeds give different ones.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from layers import EXPERIMENT_IDS

#: Experiments the edit loop perturbs, one per simulation layer: Seccomp
#: filter sweeps and compiled BPF (fig2), software Draco (fig11), the
#: hardware-Draco kernel (fig12), software Draco on the old kernel (fig17)
#: and the fleet model (fleet).  A round visits each of them once, in an
#: order the seed picks, so rounds cost about the same whatever the seed.
EDIT_POOL = ("fig2", "fig11", "fig12", "fig17", "fleet")

#: The seed values an edit sets.  fig11 and fig17 fail for about one seed
#: value in four at this commit: the analytic tier rejects a draco-sw
#: replay in which the VAT evicted an entry (``SimulationError``).  A
#: benchmark workload must be one on which no operation fails, so edits
#: draw from values on which every experiment of the pool completes (each
#: checked with a cache-off ``engine.run_suite``).  The defect is not
#: hidden: every edit-loop run also runs ``KNOWN_FAILING`` and records
#: whether it still fails.
EDIT_SEEDS = (
    670866640, 2134936861, 1259396567, 1633584654, 1644906798, 1991119912,
    1653739723, 1433270187, 1577247577, 1579982324, 1864142772, 1521801530,
)

#: A seed value on which fig11 fails at this commit (fig17 fails on it too,
#: by the same replay check).
KNOWN_FAILING = (("fig11", 606397221),)

#: Experiments that take milliseconds whatever their seed.  (Most other
#: monolithic experiments build contexts for every catalog workload when
#: given a fresh seed, which takes seconds.)
TABLES = ("table1", "table2", "table3")

#: Catalog workloads a served fig2 request is narrowed to.
FIG2_WORKLOADS = (
    "httpd", "nginx", "elasticsearch", "mysql", "cassandra", "redis", "grep",
    "pwgen", "sysbench-fio", "hpcc", "unixbench-syscall", "fifo-ipc",
    "pipe-ipc", "domain-ipc", "mq-ipc",
)

#: One block of a client's schedule: (kind, count).  The ratio is an
#: assumption, not taken from observed or documented traffic.  It is set
#: so that most requests compute, which keeps the median request a
#: computed one whatever the seed: memo-hit latency (about a millisecond)
#: swings with CPU contention far more than computed latency does.  The
#: run record keeps each kind's latencies apart, by how the daemon served
#: them, so no figure depends on the ratio alone.
BLOCK = (("hot", 2), ("fresh", 4), ("overlap", 4))
HOT_REQUESTS = 4
CLIENTS = 2


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


def _fresh_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def suite_order(seed: int) -> List[str]:
    """The full registry in a seeded order (same work, different schedule)."""
    order = list(EXPERIMENT_IDS)
    _rng(seed, "order").shuffle(order)
    return order


def perturbations(seed: int, rounds: int) -> List[Tuple[str, int]]:
    """``(experiment, new seed)`` per edit cycle: each round visits every
    pool experiment once, in a seeded order, with a seed value from
    ``EDIT_SEEDS`` that experiment has not had yet in the run."""
    if rounds > len(EDIT_SEEDS):
        raise ValueError(f"at most {len(EDIT_SEEDS)} edit rounds per run")
    rng = _rng(seed, "perturb")
    values = {experiment: rng.sample(EDIT_SEEDS, rounds) for experiment in EDIT_POOL}
    out: List[Tuple[str, int]] = []
    for index in range(rounds):
        pool = list(EDIT_POOL)
        rng.shuffle(pool)
        out.extend((experiment, values[experiment][index]) for experiment in pool)
    return out


def _request(rng: random.Random, seed: Optional[int], workload: str) -> Dict[str, Any]:
    """fig2 narrowed to one catalog workload (trace, profile, filter
    compile, calibration and evaluation stages) plus one table.  fig2
    alone is eight stages, so the daemon dispatches them to its pool."""
    request: Dict[str, Any] = {
        "experiments": sorted(["fig2", rng.choice(TABLES)]),
        "run_overrides": {"fig2": {"workloads": [workload]}},
    }
    if seed is not None:
        request["seed"] = seed
    return request


def hot_requests(seed: int) -> List[Dict[str, Any]]:
    """The requests the memo serves, at the experiments' default seeds;
    set-up computes each once."""
    rng = _rng(seed, "hot")
    return [_request(rng, None, workload)
            for workload in rng.sample(FIG2_WORKLOADS, HOT_REQUESTS)]


def warmup_mix(seed: int) -> List[List[Dict[str, Any]]]:
    """Per client, one fresh request for every catalog workload, in a
    seeded order: the served loop's warm-up."""
    rng = _rng(seed, "warmup")
    return [[{"kind": "warmup", "request": _request(rng, _fresh_seed(rng), workload)}
             for workload in rng.sample(FIG2_WORKLOADS, len(FIG2_WORKLOADS))]
            for _ in range(CLIENTS)]


def request_mix(seed: int, blocks: int) -> List[List[Dict[str, Any]]]:
    """Per client, its schedule of requests for ``blocks`` blocks.

    Every entry is ``{"kind": ..., "request": ...}``.  Overlap entries sit
    at the same index in both schedules; the clients send them at the same
    moment.  Half the overlap pairs are identical requests (one computes,
    the other coalesces onto it); the other half share fig2's stages but
    differ in the table.
    """
    rng = _rng(seed, "mix")
    hot = hot_requests(seed)
    schedules: List[List[Dict[str, Any]]] = [[] for _ in range(CLIENTS)]
    deck: List[str] = []

    def workload() -> str:
        # Deal the catalog in seeded permutations, so every run computes
        # each workload about equally often and costs the same.
        if not deck:
            deck.extend(rng.sample(FIG2_WORKLOADS, len(FIG2_WORKLOADS)))
        return deck.pop()

    for _ in range(blocks):
        kinds = [kind for kind, count in BLOCK for _ in range(count)]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "overlap":
                first = _request(rng, _fresh_seed(rng), workload())
                if rng.random() < 0.5:
                    pair = [first, first]
                else:
                    other = rng.choice([t for t in TABLES if t not in first["experiments"]])
                    pair = [first, dict(first, experiments=sorted(["fig2", other]))]
                for client in range(CLIENTS):
                    schedules[client].append({"kind": kind, "request": pair[client]})
                continue
            for client in range(CLIENTS):
                if kind == "hot":
                    request = rng.choice(hot)
                else:
                    request = _request(rng, _fresh_seed(rng), workload())
                schedules[client].append({"kind": kind, "request": request})
    return schedules
