"""The five workloads: what each one runs, on which inputs, and why.

A workload is a frozen description — generator template, table sizes,
job knobs — plus the functions that turn it and a seed into inputs
(:func:`make_dataset`, :func:`make_payload`) and into the job under test
(:func:`build_handle`).  The seed reaches the generators only: the
program under test sees the generated tables and payloads, never the
seed.  Every knob not named here (``gram_verification`` above all) stays
at the library's default, so that a better default shows as a gain.

:func:`prepare` is the set-up the ``setup_s`` metric times: data
generation, CSV and payload encoding, the oracle's references and, for
the HTTP workload, booting ``repro serve`` until ``/healthz`` answers.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.state_machine import JoinState
from repro.datagen.accidents import ACCIDENT_SCHEMA
from repro.datagen.municipalities import MUNICIPALITY_SCHEMA, generate_location_strings
from repro.datagen.testcases import (
    STANDARD_TEST_CASES,
    GeneratedDataset,
    TestCaseSpec,
    generate_test_case,
)
from repro.engine.table import Table
from repro.jobs import JobHandle, LinkageJob, build_job
from repro.runtime.config import RunConfig
from repro.runtime.handoff import live_block_count
from repro.runtime.session import JoinSession

import httpload
import oracle

THETA_SIM = 0.85
ATTRIBUTE = "location"

#: Child rows the brute-force reference of ``approx_uniform_16k`` scans.
BRUTE_FORCE_SAMPLE = 200


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see the README's workload table)."""

    name: str
    why: str
    #: Generator template; its seed is replaced by one derived from ``--seed``.
    #: ``None`` selects :func:`clean_dataset`.
    case: Optional[TestCaseSpec]
    parent_size: int
    child_size: int
    strategy: str
    #: State the bare-engine and fixed-policy session probes of the traced
    #: pass run in: the state the op itself is pinned to, or for the
    #: adaptive workloads the paper's reference run (all-approximate when
    #: the data has variants, all-exact when it is clean).
    engine_state: JoinState
    #: Passed to ``LinkageJob.config``; ``None`` keeps the builder's default.
    config: Optional[RunConfig] = None
    shards: int = 1
    backend: str = "serial"
    partitioner: str = "hash"
    max_workers: Optional[int] = None
    #: Distinct datasets per run (the HTTP workload cycles four payloads).
    datasets: int = 1
    http: bool = False
    #: Write the tables as CSV in set-up (the traced pass times
    #: ``repro link`` on them).
    csv: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="approx_uniform_16k",
            why=(
                "all-approximate SSHJoin: candidate generation and verification "
                "in SideState.probe_qgram do >90% of the work; session, policy, "
                "sharding and server are bypassed"
            ),
            case=STANDARD_TEST_CASES["uniform_child"],
            parent_size=8_000,
            child_size=8_000,
            strategy="approximate",
            engine_state=JoinState.LAP_RAP,
        ),
        Workload(
            name="adaptive_bursty_18k",
            why=(
                "the paper's MAR loop on bursty variants in both inputs: "
                "transitions, bulk catch_up_qgram at each switch, exact and "
                "approximate probing mixed over a lazily built gram index"
            ),
            case=STANDARD_TEST_CASES["few_high_both"],
            parent_size=6_000,
            child_size=12_000,
            strategy="adaptive",
            engine_state=JoinState.LAP_RAP,
            csv=True,
        ),
        Workload(
            name="adaptive_clean_48k",
            why=(
                "clean data keeps MAR in lex/rex: the q-gram layer is bypassed; "
                "engine batch, session bus/monitor and the assessor's binomial "
                "test do all the work"
            ),
            case=None,
            parent_size=16_000,
            child_size=32_000,
            strategy="adaptive",
            engine_state=JoinState.LEX_REX,
        ),
        Workload(
            name="sharded_approx_16k",
            why=(
                "4 gram-prefix shards on the process backend: plan build, "
                "columnar encode and shared-memory publish, pool dispatch, "
                "merge and first-shard-wins dedup; the only ParallelExecutor run"
            ),
            case=STANDARD_TEST_CASES["uniform_child"],
            parent_size=8_000,
            child_size=8_000,
            strategy="adaptive",
            engine_state=JoinState.LAP_RAP,
            config=RunConfig(
                policy="fixed", initial_state=JoinState.LAP_RAP, verify_jaccard=True
            ),
            shards=4,
            backend="process",
            partitioner="gram-prefix",
            max_workers=2,
        ),
        Workload(
            name="http_small_jobs",
            why=(
                "2 closed-loop clients against repro serve: JSON parse, payload "
                "normalisation, table load, the scheduler's shard driver, "
                "fsynced JSONL appends, NDJSON and HTTP around a ~0.1 s engine run"
            ),
            case=STANDARD_TEST_CASES["uniform_child"],
            parent_size=1_000,
            child_size=1_000,
            strategy="adaptive",
            engine_state=JoinState.LAP_RAP,
            shards=2,
            datasets=4,
            http=True,
        ),
    )
}


def clean_dataset(seed: int, parent_size: int, child_size: int) -> GeneratedDataset:
    """Variant-free parent-child tables whose matches arrive on schedule.

    Child ``j`` references parent ``frac(j * phi) * |R|`` — a
    low-discrepancy sequence — so at every step the number of pairs seen
    so far sits within a few units of the binomial model's mean.  With
    random references (``generate_test_case`` at ``variant_rate=0``) the
    default 5 % outlier test fires on a chance shortfall in about half of
    all seeds, and each spurious lex/rex -> lap/rap excursion bulk-builds
    the gram index: op time then ranged 3.2-6.6 s over ten seeds.  Here the
    run provably stays in lex/rex, which is what the workload is for,
    while the assessor still does its full binomial summation (observed <
    scanned, so no shortcut applies).  The seed picks the location strings.
    """
    locations = generate_location_strings(parent_size, seed=seed)
    parent = Table(MUNICIPALITY_SCHEMA, name="municipalities")
    for index, location in enumerate(locations):
        parent.insert_values(index, location)
    golden = (5**0.5 - 1) / 2
    references = [int(j * golden % 1.0 * parent_size) for j in range(child_size)]
    child = Table(ACCIDENT_SCHEMA, name="accidents")
    for index, reference in enumerate(references):
        child.insert_values(index, locations[reference], "2008-01-01", "minor", 1)
    return GeneratedDataset(
        spec=TestCaseSpec(
            "clean", "uniform", "child", parent_size, child_size, 0.0, seed
        ),
        parent=parent,
        child=child,
        true_pairs=[(reference, index) for index, reference in enumerate(references)],
        child_variant_flags=[False] * child_size,
        parent_variant_flags=[False] * parent_size,
    )


def make_dataset(
    workload: Workload, seed: int, index: int = 0, smoke: bool = False
) -> GeneratedDataset:
    """The workload's ``index``-th dataset for ``--seed seed``."""
    position = list(WORKLOADS).index(workload.name)
    dataset_seed = seed * 1000 + position * 10 + index
    scale = 10 if smoke else 1
    sizes = (workload.parent_size // scale, workload.child_size // scale)
    if workload.case is None:
        return clean_dataset(dataset_seed, *sizes)
    return generate_test_case(
        dataclasses.replace(workload.case, seed=dataset_seed), *sizes
    )


def build_handle(workload: Workload, dataset: GeneratedDataset) -> JobHandle:
    """The builder chain to ``.build()`` for one op of a library workload."""
    job = (
        LinkageJob.between(dataset.parent, dataset.child)
        .on(ATTRIBUTE)
        .strategy(workload.strategy)
        .threshold(THETA_SIM)
    )
    if workload.config is not None:
        job.config(workload.config)
    if workload.shards > 1:
        job.sharded(
            workload.shards,
            backend=workload.backend,
            partitioner=workload.partitioner,
            max_workers=workload.max_workers,
        )
    return job.build()


def probe_config(workload: Workload) -> RunConfig:
    """The fixed-policy session config of the traced pass's layer probes."""
    base = workload.config or RunConfig()
    return base.with_overrides(policy="fixed", initial_state=workload.engine_state)


def make_payload(workload: Workload, dataset: GeneratedDataset) -> Dict[str, object]:
    """The inline-table JSON job spec ``POST /jobs`` receives."""

    def inline(table) -> Dict[str, object]:
        return {
            "columns": list(table.schema.attributes),
            "rows": [list(record.values) for record in table],
        }

    return {
        "left": inline(dataset.parent),
        "right": inline(dataset.child),
        "attribute": ATTRIBUTE,
        "shards": workload.shards,
    }


@dataclass
class Prepared:
    """Everything set-up produces for one run of one workload."""

    workload: Workload
    datasets: List[GeneratedDataset]
    references: List[oracle.Reference]
    #: Input tuples of one op, per dataset.
    tuples: List[int]
    payloads: List[bytes] = field(default_factory=list)
    csv_paths: Optional[Dict[str, Path]] = None
    server: Optional[httpload.ServerProcess] = None

    def close(self) -> None:
        """Stop the server this set-up booted, if any."""
        if self.server is not None:
            self.server.stop()


def prepare(workload: Workload, seed: int, smoke: bool, work_dir: Path) -> Prepared:
    """Set-up: everything before the first warm-up op."""
    datasets = [
        make_dataset(workload, seed, index, smoke)
        for index in range(workload.datasets)
    ]
    references = [
        oracle.Reference(dataset, ATTRIBUTE, THETA_SIM) for dataset in datasets
    ]
    prepared = Prepared(
        workload=workload,
        datasets=datasets,
        references=references,
        tuples=[len(d.parent) + len(d.child) for d in datasets],
    )
    if workload.csv:
        prepared.csv_paths = {
            "left": work_dir / f"{workload.name}-parent.csv",
            "right": work_dir / f"{workload.name}-child.csv",
        }
        datasets[0].parent.to_csv(str(prepared.csv_paths["left"]))
        datasets[0].child.to_csv(str(prepared.csv_paths["right"]))
    if workload.strategy == "approximate":
        # Brute force over an evenly spaced child sample: a reference that
        # shares no code with the gram index.
        reference = references[0]
        rows = len(datasets[0].child)
        sample = range(0, rows, max(1, rows // BRUTE_FORCE_SAMPLE))
        reference.sample_rows = set(sample)
        reference.sample_pairs = oracle.brute_force_pairs(reference, sample)
    if workload.backend == "process":
        # The symmetric predicate makes the gram partitioners' pair set
        # equal to the unsharded run's, on every backend.
        unsharded = JoinSession(
            datasets[0].parent, datasets[0].child, ATTRIBUTE, workload.config
        ).run()
        references[0].expected_set = set(unsharded.matched_pairs())
    if workload.http:
        for dataset, reference in zip(datasets, references):
            payload = make_payload(workload, dataset)
            prepared.payloads.append(json.dumps(payload).encode("utf-8"))
            reference.expected_sequence = [
                match.pair for match in build_job(payload).stream_matches()
            ]
        prepared.server = httpload.ServerProcess(work_dir)
    return prepared


def verify(prepared: Prepared, index: int, pairs) -> List[str]:
    """The oracle's verdict on one op's pairs, plus the shared-memory leak
    check for ops that ran in this process."""
    problems = oracle.check_pairs(prepared.references[index], pairs)
    if not prepared.workload.http and live_block_count():
        problems.append(f"{live_block_count()} shared-memory block(s) leaked")
    return problems
