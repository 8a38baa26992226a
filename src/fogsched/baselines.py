"""Reference schedulers: FCFS, SJF, RR, and a particle-swarm mapper.

A baseline is an order and a node choice. One list-scheduling loop takes
the tasks in the baseline's order and starts each on its chosen node at full
speed, at the later of its submit time and the node's k-th earliest slot
time for a task needing k elements (the main scheduler's slot model). A task
with no node fails. Baselines do no deadline admission; missed deadlines
surface in the metrics instead of being prevented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gap import _node_table, fresh_lanes, occupy
from .model import FogNode, Schedule, ScheduleEntry, Task
from .power import active_power

# Particle-swarm velocity update: the inertia weight of Shi & Eberhart
# (ICEC 1998) with Kennedy & Eberhart's cognitive and social factors.
INERTIA, COGNITIVE, SOCIAL = 0.7, 1.5, 1.5

# Lane bytes per fitness call when PSO scores its whole mapping table: 512
# rows at 2 nodes of 8 slots. Larger blocks cut per-call overhead no further
# and raise peak RSS.
TABLE_BLOCK_BYTES = 64 * 1024


@dataclass(frozen=True)
class PsoConfig:
    """Swarm parameters."""

    swarm_size: int = 30
    iterations: int = 100

    def validate(self) -> None:
        # 1000 is 33 times the default; far past it the swarm's arrays cannot be allocated.
        if not 2 <= self.swarm_size <= 1000:
            raise ValueError("swarm_size must lie in [2, 1000]")
        # 10000 is 100 times the default; a run's swarm steps grow linearly
        # with it, so far past it a run would not end in any useful time.
        if not 1 <= self.iterations <= 10000:
            raise ValueError("iterations must lie in [1, 10000]")


def _list_schedule(ordered: list[Task], nodes: list[FogNode], pick) -> Schedule:
    """Place each task of `ordered` on pick(i, task, by_id, table): a row
    of the node table with the slots for it, or None to fail it. by_id is
    `nodes` by id, and table is gap's node table over it at full speed, so
    table[0][j] is by_id[j]'s row and holds that node's live lane."""
    sched = Schedule()
    by_id = sorted(nodes, key=lambda n: n.id)
    table = _node_table(by_id, 1.0, fresh_lanes(nodes))
    for i, task in enumerate(ordered):
        row = pick(i, task, by_id, table)
        if row is None:
            sched.failed.append(task.id)
            continue
        node_id, lane, mips = row[:3]
        avail = lane[task.npe - 1]
        start = avail if avail > task.submit_time else task.submit_time
        entry = ScheduleEntry.make(task.id, node_id, start, task.length / mips, 1.0)
        sched.entries.append(entry)
        occupy(lane, task.npe, entry.completion)
    return sched


def _earliest(i: int, task: Task, by_id: list[FogNode], table):
    """The capable node's row where the task can start first (tie: lower
    id). The table's rows for the task's width are exactly the nodes with
    enough slots, in id order."""
    k, submit = task.npe - 1, task.submit_time
    best = None  # (start, row)
    for row in table.get(task.npe, ()):
        avail = row[1][k]
        start = avail if avail > submit else submit
        if best is None or start < best[0]:
            best = (start, row)
    return None if best is None else best[1]


def _rotation(i: int, task: Task, by_id: list[FogNode], table):
    """The row of node i mod m by id, or of the next capable one in cycle
    order."""
    m = len(by_id)
    for probe in range(m):
        j = (i + probe) % m
        if task.npe <= by_id[j].npe_slots:
            return table[0][j]
    return None


def fcfs_schedule(tasks: list[Task], nodes: list[FogNode]) -> Schedule:
    """First come, first served: submission order, earliest-available node."""
    order = sorted(tasks, key=lambda t: (t.submit_time, t.id))
    return _list_schedule(order, nodes, _earliest)


def sjf_schedule(tasks: list[Task], nodes: list[FogNode]) -> Schedule:
    """Shortest job first: length order, earliest-available node."""
    return _list_schedule(sorted(tasks, key=lambda t: (t.length, t.id)), nodes, _earliest)


def rr_schedule(tasks: list[Task], nodes: list[FogNode]) -> Schedule:
    """Round robin: submission order, node cycled by task index, skipping
    a node too small for the task."""
    order = sorted(tasks, key=lambda t: (t.submit_time, t.id))
    return _list_schedule(order, nodes, _rotation)


def pso_schedule(tasks: list[Task], nodes: list[FogNode],
                 cfg: PsoConfig = PsoConfig(), seed: int = 0) -> Schedule:
    """Particle-swarm task-to-node mapping.

    Particle positions are real vectors, one dimension per task, decoded by
    clamped rounding into each task's list of capable nodes. Fitness is the
    full-speed energy of the decoded schedule plus a penalty per missed
    deadline. The list-scheduling loop places the global best after the
    final iteration, in submission order.

    A swarm of s particles run for k iterations may score s * (k + 1)
    mappings. When the mapping space, the product of the tasks' capable-node
    counts, fits in that budget, every mapping is scored once up front, a
    block of rows per `fitness` call, and particles read their scores from
    that table; the swarm stops as soon as its global best holds the table's
    minimum. The output is the same bits either way: a row's score depends
    on that row alone, the global best moves only on a strictly lower score,
    and nothing after the loop draws from the rng. Larger spaces, the paper
    sweep's among them, are scored as the swarm moves.
    """
    cfg.validate()
    by_id = sorted(nodes, key=lambda n: n.id)
    order = sorted(tasks, key=lambda t: (t.submit_time, t.id))
    capable = [[j for j, n in enumerate(by_id) if t.npe <= n.npe_slots] for t in order]
    if all(len(c) <= 1 for c in capable):
        # Every particle would decode to the same mapping, so there is
        # nothing to search.
        return _list_schedule(order, nodes, lambda i, task, by_id, table:
                              table[0][capable[i][0]] if capable[i] else None)
    placeable = [i for i, c in enumerate(capable) if c]

    dims = len(placeable)
    m = len(by_id)
    slots = np.array([n.npe_slots for n in by_id])
    max_slots = int(slots.max())
    # Per-(task, node) execution time and energy at full speed; incapable
    # pairs never get decoded so their values are irrelevant.
    lengths = np.array([order[i].length for i in placeable], dtype=float)
    submits = [order[i].submit_time for i in placeable]
    deadlines = np.array([order[i].deadline for i in placeable])
    npes = [order[i].npe for i in placeable]
    mips = np.array([n.mips for n in by_id])
    powers = np.array([active_power(n, 1.0) for n in by_id])
    ext = lengths[:, None] / mips[None, :]
    energy = ext * powers[None, :]

    # Joules per missed deadline: 10x the largest single-task full-speed
    # energy of the instance, so feasibility dominates energy.
    penalty = 10.0 * float(energy.max())

    # cand[t, c] is the node index of task t's c-th capable node.
    cand = np.zeros((dims, max(len(capable[i]) for i in placeable)), dtype=int)
    for t, i in enumerate(placeable):
        cand[t, : len(capable[i])] = capable[i]
    hi = np.array([len(capable[i]) - 1 for i in placeable], dtype=float)
    tix = np.arange(dims)
    fresh = np.full((m, max_slots), np.inf)
    for j in range(m):
        fresh[j, : int(slots[j])] = 0.0

    def columns(pos: np.ndarray) -> np.ndarray:
        """Each task's capable-node column: positions lie in [0, hi] and hi
        is integral, so rounding needs no clamp."""
        return np.rint(pos).astype(int)

    def fitness(node: np.ndarray) -> np.ndarray:
        """Vectorized over decoded particles, one row of node indices each:
        place every row and return its energy plus penalty per missed
        deadline. A row's score depends on that row alone.

        Lanes are one flat (particles * m, max_slots) array, row
        particle * m + node, each row kept ascending so the k-th free slot
        is column k - 1. Equal lane values are interchangeable, so every
        completion time has the bits of a plain k-smallest update.
        """
        s = node.shape[0]
        # cumsum adds in task order; np.sum's pairwise order changes bits.
        total = np.cumsum(energy[tix, node], axis=1)[:, -1]
        ext_of = ext[tix, node].T.copy()
        lane_of = (node + m * np.arange(s)[:, None]).T.copy()
        # Not np.tile: it keeps ~120 KB more memory resident after a few
        # hundred calls.
        lanes = np.repeat(fresh[None], s, axis=0).reshape(s * m, max_slots)
        ct = np.empty((dims, s))
        for t in range(dims):
            rows = lane_of[t]
            k = npes[t]
            lane = lanes.take(rows, axis=0)
            done = ct[t]
            np.maximum(lane[:, k - 1], submits[t], out=done)
            done += ext_of[t]
            lane[:, :k] = done[:, None]
            lane.sort(axis=1)
            lanes[rows] = lane
        misses = (ct > deadlines[:, None]).sum(axis=0)
        return total + penalty * misses

    radix = hi.astype(int) + 1
    budget = cfg.swarm_size * (cfg.iterations + 1)
    space = 1
    for r in radix.tolist():
        space *= r
        if space > budget:
            break
    table = None
    if space <= budget:
        # Few enough mappings for the swarm to score them all: score each
        # once, numbered by its mixed-radix code. Each fitness call takes a
        # block of rows whose lanes fill about TABLE_BLOCK_BYTES, and at
        # least a swarm; rows score alone, so the block size moves no bit.
        stride = np.cumprod(np.concatenate(([1], radix[:-1])))
        block = max(cfg.swarm_size, TABLE_BLOCK_BYTES // (8 * m * max_slots))
        table = np.concatenate([
            fitness(cand[tix, np.arange(k, min(k + block, space))[:, None]
                         // stride % radix])
            for k in range(0, space, block)])
    # No score is below -inf, so without a table every iteration runs.
    floor = -np.inf if table is None else float(table.min())

    rng = np.random.default_rng(seed)
    pos = rng.random((cfg.swarm_size, dims)) * hi[None, :]
    vel = np.zeros_like(pos)
    dec = columns(pos)
    fit = fitness(cand[tix, dec]) if table is None else table[dec @ stride]
    pbest = pos.copy()
    pbest_fit = fit.copy()
    g = pbest_fit.argmin()
    gbest = pbest[g].copy()
    gbest_fit = float(pbest_fit[g])
    for _ in range(cfg.iterations):
        # gbest moves only on a strictly lower score and nothing after the
        # loop reads the rng, so stopping at the floor is exact.
        if gbest_fit == floor:
            break
        r1 = rng.random(pos.shape)
        r2 = rng.random(pos.shape)
        vel = INERTIA * vel + COGNITIVE * r1 * (pbest - pos) + SOCIAL * r2 * (gbest - pos)
        # np.clip(pos + vel, 0.0, hi) to the bit without its Python dispatch.
        # The two differ only on -0.0, which never arises: positions start
        # at +0.0 or above, and a sum is -0.0 only if both terms are.
        pos = np.minimum(np.maximum(pos + vel, 0.0), hi)
        new = columns(pos)
        if table is not None:
            fit = table[new @ stride]
        else:
            # A particle whose decode did not change keeps its score.
            moved = (new != dec).any(axis=1)
            if moved.any():
                fit[moved] = fitness(cand[tix, new[moved]])
            dec = new
        improved = fit < pbest_fit
        pbest[improved] = pos[improved]
        pbest_fit = np.where(improved, fit, pbest_fit)
        g = pbest_fit.argmin()
        if float(pbest_fit[g]) < gbest_fit:
            gbest = pbest[g].copy()
            gbest_fit = float(pbest_fit[g])

    chosen = cand[tix, columns(gbest)]
    node_of = dict(zip(placeable, chosen.tolist()))
    return _list_schedule(order, nodes, lambda i, task, by_id, table:
                          table[0][node_of[i]] if i in node_of else None)
