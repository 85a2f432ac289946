#!/usr/bin/env python3
"""Quickstart: link two small tables with the adaptive join.

This example builds a tiny street-atlas (parent) table and an accidents
(child) table whose location strings contain a few typos, then links them
with each of the four strategies exposed by :func:`repro.link_tables` and
prints what each strategy found.  It closes with the job-oriented API —
the fluent :class:`repro.LinkageJob` builder behind ``link_tables`` —
streaming the same matches one by one (see examples/streaming_jobs.py
for the full tour: progress, cancellation, the process backend).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import LinkageJob, Table, Schema, link_tables
from repro.linkage.evaluation import evaluate_pairs

ATLAS_SCHEMA = Schema(["municipality_id", "location"], name="atlas")
ACCIDENT_SCHEMA = Schema(["accident_id", "location"], name="accidents")

ATLAS_ROWS = [
    (0, "LIG GE GENOVA"),
    (1, "LOM MI MILANO"),
    (2, "LAZ RM ROMA CAPITALE"),
    (3, "TAA BZ SANTA CRISTINA VALGARDENA"),
    (4, "VEN VE VENEZIA MESTRE"),
    (5, "TOS FI FIRENZE"),
    (6, "CAM NA NAPOLI CENTRO"),
    (7, "PIE TO TORINO"),
    (8, "SIC PA PALERMO"),
    (9, "PUG BA BARI VECCHIA"),
]

# Accidents reference atlas locations; three of them carry a one-character
# typo (a "variant"), which an exact join cannot match.
ACCIDENT_ROWS = [
    (100, "LIG GE GENOVA"),
    (101, "LOM MI MILANO"),
    (102, "LOM MI MILANx"),                     # variant of MILANO
    (103, "LAZ RM ROMA CAPITALE"),
    (104, "TAA BZ SANTA CRISTINx VALGARDENA"),  # variant (the paper's example)
    (105, "VEN VE VENEZIA MESTRE"),
    (106, "TOS FI FIRENZE"),
    (107, "CAM NA NAPOLI CENTRO"),
    (108, "PIE TO TORINq"),                     # variant of TORINO
    (109, "SIC PA PALERMO"),
    (110, "PUG BA BARI VECCHIA"),
    (111, "LIG GE GENOVA"),
]

# Ground truth: which atlas row each accident refers to.
TRUE_PAIRS = [
    (0, 0), (1, 1), (1, 2), (2, 3), (3, 4), (4, 5),
    (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (0, 11),
]


def main() -> None:
    atlas = Table.from_rows(ATLAS_SCHEMA, ATLAS_ROWS, name="atlas")
    accidents = Table.from_rows(ACCIDENT_SCHEMA, ACCIDENT_ROWS, name="accidents")

    print(f"atlas: {len(atlas)} rows, accidents: {len(accidents)} rows")
    print(f"expected matches (ground truth): {len(TRUE_PAIRS)}\n")

    # The values here are short (13-32 characters), so a slightly lower
    # similarity threshold than the paper's 0.85 is needed for one-character
    # typos to clear the shared-q-gram test; 0.80 is right for this data.
    threshold = 0.80
    for strategy in ("exact", "approximate", "blocking", "adaptive"):
        result = link_tables(
            atlas, accidents, "location",
            strategy=strategy, similarity_threshold=threshold,
        )
        evaluation = evaluate_pairs(result.pairs, TRUE_PAIRS)
        print(
            f"{strategy:>12}: {result.pair_count:2d} pairs  "
            f"recall={evaluation.recall:.2f}  precision={evaluation.precision:.2f}"
        )

    # The adaptive strategy also reports how it spent its time.
    adaptive = link_tables(
        atlas, accidents, "location",
        strategy="adaptive", similarity_threshold=threshold,
    )
    print("\nadaptive trace:", adaptive.statistics["trace"])

    # The same run, job-shaped: build fluently, stream matches as they
    # are found instead of waiting for the full result.
    handle = (
        LinkageJob.between(atlas, accidents)
        .on("location")
        .strategy("adaptive")
        .threshold(threshold)
        .build()
    )
    print("\nstreamed through the jobs API:")
    for match in handle.stream_matches(batch_size=4):
        print(
            f"  step {match.event.step:2d}: pair {match.pair} "
            f"({match.event.mode.value}, sim {match.event.similarity:.2f})"
        )


if __name__ == "__main__":
    main()
