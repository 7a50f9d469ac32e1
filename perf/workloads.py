"""The four replayed workloads and how each operation is observed.

A workload is a fixed sequence of N operations.  ``replay()`` runs the
sequence once and returns one wall-clock sample and one observation per
position; the caller replays it R times and reduces per position (see
``estimators.py``).  The engine is only ever called through its public functions.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import calibrate
import datasets
from estimators import median
from repro.engine.service import QueryRequest, QueryService
from repro.planner.api import run_query
from repro.planner.optimizer import PlanCache
from repro.workloads.registry import PAPER_ORDER, WORKLOADS
from repro.workloads.traffic import zipf_weights

#: simulated cluster size of the batch workloads (the paper's 64 workers)
WORKERS = 64
#: simulated cluster size behind the service (as benchmarks/bench_serving.py)
SERVE_WORKERS = 8
#: the kernel backend is passed explicitly, never taken from the environment
KERNELS = "numpy"

#: closed loop: this many logical callers, each waiting for its reply
CALLERS = 4
TRACE_LENGTH = 20
#: completions between calibration blocks inside a served replay
CALIBRATE_EVERY = 5
TRACE_SEED = 2015
ZIPF_EXPONENT = 1.0
#: query classes in popularity order: the registry's ``PAPER_ORDER``, as
#: benchmarks/bench_serving.py ranks them.  Q4 is left out: warm it costs
#: what Q5 does (0.2 s), but its cold plan alone takes 11-15 s, which
#: ``setup_s`` would pay three times per run.
SERVE_CLASSES = tuple(name for name in PAPER_ORDER if name != "Q4")


@dataclass(frozen=True)
class Cell:
    """One operation: a paper query on a dataset under a strategy."""

    query: str
    dataset: str
    strategy: str
    workers: int = WORKERS

    @property
    def op_id(self) -> str:
        """Names the operation in traces, goldens and failure messages."""
        return f"{self.query}/{self.strategy}@{self.dataset}/w{self.workers}"

    @property
    def answer_key(self) -> str:
        """Names the answer, which no strategy or runtime may change."""
        return f"{self.query}@{self.dataset}"


@dataclass
class Observation:
    """What one operation returned, reduced to what verification compares."""

    op_id: str
    answer_key: str
    ok: bool
    result_count: int
    tuples_shuffled: int
    wall_clock: float
    total_cpu: float
    strategy: str
    #: order-independent checksum of the rows, cheap enough for every replay
    row_checksum: int
    #: sha256 of the sorted rows in generator ids (first replay only)
    sha256: Optional[str] = None

    def counted(self) -> tuple:
        """Everything that must repeat exactly from replay to replay."""
        return (
            self.ok, self.result_count, self.tuples_shuffled,
            self.wall_clock, self.total_cpu, self.strategy, self.row_checksum,
        )


def canonical_sha256(rows: list, relabelling: datasets.Relabelling) -> str:
    """sha256 of the sorted rows after mapping ids back to the generator's.

    Every head variable of Q1-Q8 is an entity id, so whole rows map back.
    """
    if not rows:
        return hashlib.sha256(b"").hexdigest()
    data = relabelling.backward(np.asarray(rows, dtype=np.int64))
    data = data[np.lexsort(data.T[::-1])]
    return hashlib.sha256(np.ascontiguousarray(data).tobytes()).hexdigest()


def observe(
    cell: Cell, rows: list, stats, strategy: str, ok: bool,
    relabelling: Optional[datasets.Relabelling],
) -> Observation:
    """Reduce one result; pass a relabelling to also take the sha256."""
    return Observation(
        op_id=cell.op_id,
        answer_key=cell.answer_key,
        ok=ok,
        result_count=stats.result_count,
        tuples_shuffled=stats.tuples_shuffled,
        wall_clock=stats.wall_clock,
        total_cpu=stats.total_cpu,
        strategy=strategy,
        row_checksum=sum(map(hash, rows)) & 0xFFFFFFFFFFFFFFF,
        sha256=canonical_sha256(rows, relabelling) if relabelling else None,
    )


@dataclass
class Replay:
    """One pass over the sequence."""

    latencies: list[float]
    observations: list[Observation]
    #: wall-clock of the whole pass as a caller sees it, calibration excluded
    elapsed: float
    #: the calibration blocks taken during the pass (1.0 = the box at rest)
    blocks: list[float]
    #: serve only: (ticks before the call, start, end) of every ``step()``
    ticks: list[tuple[int, float, float]] = field(default_factory=list)
    #: serve only: per position (submit time, admitted_tick, finish time)
    admissions: list[tuple[float, int, float]] = field(default_factory=list)
    #: serve only: scheduler ticks and Rounds this pass consumed (exact)
    service_ticks: int = 0
    service_rounds: int = 0

    @property
    def slowdown(self) -> float:
        """How slow the box ran during the pass: the mean of its blocks."""
        return statistics.fmean(self.blocks)

    def calibrated(self) -> list[float]:
        """The latencies in reference-speed seconds (see ``calibrate.py``)."""
        return [seconds / self.slowdown for seconds in self.latencies]

    def calibrated_elapsed(self) -> float:
        """The pass's elapsed time in reference-speed seconds."""
        return self.elapsed / self.slowdown


class Workload:
    """Shared plumbing: dataset construction and the public description."""

    #: as in ``BENCHMARK.json``, which also records why the workload is here
    name: str
    #: which optional layers this workload enters (see ``layers.py``)
    layers: frozenset
    cells: tuple[Cell, ...]

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        if smoke:
            self.cells = tuple(
                Cell(
                    c.query, datasets.SMOKE_SHAPES.get(c.dataset, c.dataset),
                    c.strategy, c.workers,
                )
                for c in self.cells
            )
        self.datasets: dict[str, datasets.Dataset] = {}

    def build_datasets(self) -> None:
        """Generate every dataset the cells name (once each)."""
        for cell in self.cells:
            if cell.dataset not in self.datasets:
                self.datasets[cell.dataset] = datasets.build(cell.dataset, self.seed)

    @property
    def sequence(self) -> tuple[Cell, ...]:
        """The N operations of one replay, in order."""
        return self.cells

    @property
    def probe_cell(self) -> Cell:
        """The cell whose scanned frames the direct kernel probes run on."""
        return self.cells[0]

    def queries_per_s(self, typical: list[float], elapsed: list[float]) -> float:
        """Operations per second of one typical replay."""
        raise NotImplementedError


class BatchWorkload(Workload):
    """Closed loop, one caller: ``run_query`` on each cell in turn."""

    runtime = "serial"

    def run_cell(
        self, cell: Cell, first: bool, runtime: Optional[str] = None
    ) -> tuple[float, Observation]:
        """Time one ``run_query`` call; observe its result outside the clock."""
        data = self.datasets[cell.dataset]
        started = time.perf_counter()
        result = run_query(
            WORKLOADS[cell.query].query,
            data.database,
            strategy=cell.strategy,
            workers=cell.workers,
            runtime=runtime or self.runtime,
            kernels=KERNELS,
        )
        seconds = time.perf_counter() - started
        return seconds, observe(
            cell, result.rows, result.stats, result.stats.strategy,
            not result.failed, data.relabelling if first else None,
        )

    def first_answers(self, between) -> list[Observation]:
        """Set-up ends when position 0 has answered once.

        ``between`` runs after every answer (the caller calibrates there).
        """
        _, seen = self.run_cell(self.sequence[0], first=True)
        between()
        return [seen]

    def replay(self, first: bool = False, runtime: Optional[str] = None) -> Replay:
        """Run the sequence once (``runtime`` overrides the workload's own).

        A calibration block runs before the first operation and after
        every one.
        """
        samples = []
        blocks = calibrate.Blocks()
        blocks.take()
        for cell in self.sequence:
            samples.append(self.run_cell(cell, first, runtime))
            blocks.take()
        latencies = [seconds for seconds, _ in samples]
        return Replay(
            latencies=latencies,
            observations=[observation for _, observation in samples],
            elapsed=sum(latencies),
            blocks=blocks.slowdowns,
        )

    def queries_per_s(self, typical: list[float], elapsed: list[float]) -> float:
        """N over the sum of the per-position times."""
        return len(typical) / sum(typical)


class WcojCyclic(BatchWorkload):
    """HyperCube shuffle + Tributary join on cyclic self-joins."""

    name = "wcoj_cyclic"
    layers = frozenset({"hypercube", "leapfrog"})
    # the triangle on the bench graph and the 4-cycle on the small one: six
    # replays of anything more do not fit a run (README, "What the cap forced")
    cells = (
        Cell("Q1", "twitter_bench", "HC_TJ"),
        Cell("Q6", "twitter_bench_small", "HC_TJ"),
    )


class BinaryHash(BatchWorkload):
    """Regular shuffle + left-deep hash joins on wcoj_cyclic's two queries."""

    name = "binary_hash"
    layers = frozenset({"hash"})
    # the cheaper cell leads: position 0 is what every set-up answers
    cells = (
        Cell("Q6", "twitter_bench_small", "RS_HJ"),
        Cell("Q1", "twitter_bench", "RS_HJ"),
    )


class ProcPool(BatchWorkload):
    """Q1 under both strategies (one cell of each serial workload), forked."""

    name = "proc_pool"
    layers = frozenset({"hypercube", "leapfrog", "hash", "proc"})
    runtime = "parallel:2:proc"
    cells = (
        Cell("Q1", "twitter_bench", "HC_TJ"),
        Cell("Q1", "twitter_bench", "RS_HJ"),
    )


def stratified_zipf(names: tuple[str, ...], length: int) -> list[str]:
    """``length`` draws with Zipf *expected* counts (largest remainder).

    A sampled mix moves the work of a trace this short by +-30 % with the
    luck of the draw (two Q5 or six).
    """
    weights = zipf_weights(len(names), ZIPF_EXPONENT)
    exact = [weight / sum(weights) * length for weight in weights]
    counts = [int(share) for share in exact]
    by_remainder = sorted(
        range(len(names)), key=lambda i: (counts[i] - exact[i], i)
    )
    for index in by_remainder[: length - sum(counts)]:
        counts[index] += 1
    return [name for name, count in zip(names, counts) for _ in range(count)]


class ServeMixed(Workload):
    """One warm QueryService, four closed-loop callers, a Zipf query mix."""

    name = "serve_mixed"
    layers = frozenset({"hypercube", "leapfrog", "hash", "service"})
    cells = tuple(
        Cell(query, WORKLOADS[query].unit_dataset.__name__, "auto", SERVE_WORKERS)
        for query in SERVE_CLASSES
    )

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        by_query = {cell.query: cell for cell in self.cells}
        trace = stratified_zipf(SERVE_CLASSES, 12 if smoke else TRACE_LENGTH)
        # the order is the same for every --seed: who waits behind whom sets
        # each position's latency, and reshuffling moved p50 and p90 by more
        # from seed to seed (0.18-0.26 s, 0.36-0.55 s) than any change would
        random.Random(TRACE_SEED).shuffle(trace)
        self._sequence = tuple(by_query[name] for name in trace)
        self.service: Optional[QueryService] = None

    @property
    def sequence(self) -> tuple[Cell, ...]:
        """The shuffled trace."""
        return self._sequence

    @property
    def probe_cell(self) -> Cell:
        """The triangle query: three scans of the unit graph."""
        return self.cells[SERVE_CLASSES.index("Q1")]

    def request(self, cell: Cell) -> QueryRequest:
        """A caller sends rule text; the service parses and plans it."""
        return QueryRequest(
            query=str(WORKLOADS[cell.query].query),
            database=self.datasets[cell.dataset].database,
            workers=cell.workers,
            label=cell.query,
        )

    def _observe(self, cell: Cell, outcome, first: bool) -> Observation:
        data = self.datasets[cell.dataset]
        return observe(
            cell, outcome.rows, outcome.stats, outcome.strategy, outcome.ok,
            data.relabelling if first else None,
        )

    def first_answers(self, between) -> list[Observation]:
        """Stand the service up and answer one cold query of each class.

        ``between`` runs after every answer (the caller calibrates there).
        """
        self.service = QueryService(
            runtime="serial", kernels=KERNELS, max_inflight=CALLERS,
            plan_cache=PlanCache(),
        )
        observations = []
        for cell in self.cells:
            query_id = self.service.submit(self.request(cell))
            while query_id not in self.service.outcomes:
                self.service.step()
            observations.append(
                self._observe(cell, self.service.outcomes.pop(query_id), True)
            )
            between()
        return observations

    def replay(self, first: bool = False) -> Replay:
        """Serve the trace: submit while fewer than CALLERS wait, then tick.

        Latency runs from ``submit()`` to the end of the first ``step()``
        after which the outcome exists — what a waiting caller sees.  A
        calibration block runs before, after, and after every
        ``CALIBRATE_EVERY`` completions; the clock stops while one runs.
        """
        service = self.service
        sequence = self.sequence
        replay = Replay(
            latencies=[0.0] * len(sequence),
            observations=[None] * len(sequence),
            elapsed=0.0,
            blocks=[],
            admissions=[(0.0, 0, 0.0)] * len(sequence),
        )
        ticks_at_start = service.stats.ticks
        rounds_at_start = service.stats.rounds_executed
        waiting: dict[int, tuple[int, float]] = {}
        position = completed = 0
        blocks = calibrate.Blocks()

        def clock() -> float:
            return time.perf_counter() - blocks.seconds

        blocks.take()
        started = clock()
        while position < len(sequence) or waiting:
            while position < len(sequence) and len(waiting) < CALLERS:
                submitted = clock()
                query_id = service.submit(self.request(sequence[position]))
                waiting[query_id] = (position, submitted)
                position += 1
            ticks_before = service.stats.ticks
            tick_started = clock()
            service.step()
            now = clock()
            replay.ticks.append((ticks_before, tick_started, now))
            for query_id in [q for q in waiting if q in service.outcomes]:
                index, submitted = waiting.pop(query_id)
                outcome = service.outcomes.pop(query_id)
                replay.latencies[index] = now - submitted
                replay.admissions[index] = (submitted, outcome.admitted_tick, now)
                completed += 1
                if completed % CALIBRATE_EVERY == 0 and completed < len(sequence):
                    blocks.take()
                replay.observations[index] = outcome
        replay.elapsed = clock() - started
        blocks.take()
        replay.blocks = blocks.slowdowns
        replay.service_ticks = service.stats.ticks - ticks_at_start
        replay.service_rounds = service.stats.rounds_executed - rounds_at_start
        replay.observations = [
            self._observe(cell, outcome, first)
            for cell, outcome in zip(sequence, replay.observations)
        ]
        return replay

    def queries_per_s(self, typical: list[float], elapsed: list[float]) -> float:
        """N over the median of the replays' elapsed times.

        Callers overlap, so per-position latencies do not add up to the time
        a replay takes.
        """
        return len(typical) / median(elapsed)


ALL = {
    workload.name: workload
    for workload in (WcojCyclic, BinaryHash, ProcPool, ServeMixed)
}
