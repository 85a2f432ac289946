"""Shared machinery of the symmetric join operators.

Both SHJoin (exact) and SSHJoin (approximate) are *symmetric* hash joins:
every input tuple is stored on its own side and used to probe the hash
structure of the opposite side, so results stream out without waiting for
either input to finish.  The two operators differ only in **which hash
structure** is probed:

* the exact operator hashes whole join-attribute values (one bucket entry
  per tuple);
* the approximate operator hashes the *q-grams* of the join-attribute value
  (one bucket entry per (gram, tuple) pair) and matches tuples whose q-gram
  Jaccard similarity reaches a threshold.

The adaptive algorithm needs to switch between the two mid-flight, which is
why a side keeps **both** indexes but only maintains the one currently in
use; at a switch the lagging index is *caught up* with the tuples inserted
since it was last current (Sec. 2.3 of the paper, "Cost of Switching
Operators").  :class:`SideState` encapsulates all of this per-input-side
bookkeeping.

This module also defines:

* :class:`MatchEvent` — one matched pair with its similarity and provenance
  (which side probed, through which operator), consumed by the MAR monitor;
* :class:`OperationCounters` — the elementary-operation counts of Table 1
  (q-grams obtained, hash updates, candidate-set work, matches found);
* :class:`StoredTuple` — a stored input tuple with the "matched at least
  once exactly" flag of Sec. 3.3 used to attribute variants to a side.
"""

from __future__ import annotations

import enum
import math
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.engine.tuples import Record, Schema
from repro.joins.fastpath import GramInterner, jaccard_length_bounds
from repro.similarity.setsim import jaccard_from_shared

#: Filtered approximate probes observed before the length filter's
#: usefulness is judged (see ``SideState._note_filter_outcome``).
LENGTH_FILTER_SAMPLE_PROBES = 64

#: Minimum fraction of scanned bucket entries the length filter must
#: reject to keep paying its per-entry bounds test; below this the filter
#: auto-disables (sticky), leaving the match set untouched — the filter
#: only ever removes candidates that cannot pass the match decision.
LENGTH_FILTER_MIN_REJECT_RATE = 0.02


class JoinSide(enum.Enum):
    """The two inputs of a symmetric join."""

    LEFT = "left"
    RIGHT = "right"

    # Members are singletons: hashing by identity keeps the engine's
    # per-step ``Dict[JoinSide, …]`` lookups off Python-level Enum.__hash__.
    __hash__ = object.__hash__

    @property
    def other(self) -> "JoinSide":
        """The opposite side."""
        return JoinSide.RIGHT if self is JoinSide.LEFT else JoinSide.LEFT


class JoinMode(enum.Enum):
    """How tuples *scanned from* a given input are matched.

    ``EXACT``
        The scanned tuple probes the opposite side's value-hash table
        (SHJoin behaviour).
    ``APPROXIMATE``
        The scanned tuple probes the opposite side's q-gram hash table and
        matches on Jaccard similarity (SSHJoin behaviour).
    """

    EXACT = "exact"
    APPROXIMATE = "approximate"

    __hash__ = object.__hash__  # identity hashing, as for JoinSide


@dataclass(frozen=True)
class JoinAttribute:
    """The pair of attribute names being joined (left attribute, right attribute)."""

    left: str
    right: str

    def for_side(self, side: JoinSide) -> str:
        """The attribute name on ``side``."""
        return self.left if side is JoinSide.LEFT else self.right


@dataclass(slots=True)
class StoredTuple:
    """One input tuple retained in a side's tuple store.

    A slotted dataclass: one instance exists per scanned tuple, so the
    per-instance ``__dict__`` the default layout would carry is pure
    overhead on the hot path.  The q-gram set of the value is *not* stored
    here — it is materialised lazily by the side's q-gram catch-up and
    cached in the side state, so tuples scanned during exact-only phases
    never pay for tokenisation.

    Attributes
    ----------
    record:
        The original record.
    value:
        The (string) join-attribute value, extracted once at insertion.
    ordinal:
        Position of the tuple in its side's arrival order (0-based).
    matched_exactly:
        The flag of Sec. 3.3: set when this tuple has taken part in at
        least one *exact* match, and used to attribute later approximate
        matches to the probing side.
    """

    record: Record
    value: str
    ordinal: int
    matched_exactly: bool = False


@dataclass
class OperationCounters:
    """Elementary-operation counts (paper Table 1).

    The four operation families of Table 1 are tracked separately for the
    exact and the approximate operator so the benchmark for Table 1 can
    report measured counts next to the paper's analytic expressions.
    """

    #: Operation 1 — q-grams computed while probing/inserting (approx only).
    qgrams_obtained: int = 0
    #: Operation 2 — hash-table bucket insertions (1 per tuple exact,
    #: one per gram approximate).
    exact_hash_updates: int = 0
    approx_hash_updates: int = 0
    #: Operation 3 — work done building the candidate set T(t): one unit per
    #: bucket entry scanned during an approximate probe.
    candidate_scan_work: int = 0
    #: Size of the candidate sets |T(t)| accumulated over all approximate probes.
    candidate_set_size: int = 0
    #: Operation 4 — matches examined: bucket entries scanned by exact
    #: probes, candidate verifications by approximate probes.
    exact_probe_work: int = 0
    approx_verifications: int = 0
    #: Probe counts, to turn the totals above into per-probe averages.
    exact_probes: int = 0
    approx_probes: int = 0
    #: Matches actually emitted.
    matches_emitted: int = 0

    def merge(self, other: "OperationCounters") -> "OperationCounters":
        """Return a new counter object summing this one and ``other``."""
        merged = OperationCounters()
        for name in vars(merged):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (used by the benchmark reports)."""
        return dict(vars(self))


class MatchEvent(NamedTuple):
    """One matched tuple pair, as observed by the monitor.

    An immutable named tuple (one event per emitted pair: about three times
    cheaper to build than a frozen dataclass), and deliberately lazy: the
    joined output record is only materialised when :meth:`output_record`
    is called, so monitor-only consumers never build it.

    Attributes
    ----------
    step:
        Join step (quiescent-state count) at which the pair was produced.
    probe_side:
        The side whose freshly scanned tuple triggered the match.
    mode:
        Operator through which the match was found.
    left, right:
        The stored tuples of the pair, always reported in (left, right)
        order regardless of which side probed.
    similarity:
        Join-attribute similarity of the pair: 1.0 for value-equal pairs,
        the Jaccard q-gram similarity otherwise.
    exact_value_match:
        Whether the two join-attribute values are identical.
    variant_evidence:
        The side that the Sec. 3.3 reasoning blames for the mismatch, when
        such evidence exists (the stored partner had previously matched
        exactly, so the *probing* tuple must be the variant); ``None``
        otherwise.
    """

    step: int
    probe_side: JoinSide
    mode: JoinMode
    left: StoredTuple
    right: StoredTuple
    similarity: float
    exact_value_match: bool
    variant_evidence: Optional[JoinSide] = None

    def output_record(self, output_schema: Schema) -> Record:
        """Materialise the joined output record for this pair."""
        values = list(self.left.record.values) + list(self.right.record.values)
        return Record.from_values(output_schema, values)

    def pair_key(self) -> Tuple[int, int]:
        """A stable identity for the pair (left ordinal, right ordinal)."""
        return (self.left.ordinal, self.right.ordinal)


class SideState:
    """Per-input-side state of a switchable symmetric join.

    Holds the tuple store (all tuples scanned so far from this side) plus
    the two hash indexes over those tuples:

    * ``exact`` — join-attribute value → list of stored tuples (the SHJoin
      hash table of Fig. 3, left);
    * ``qgram`` — interned q-gram id → ``array('i')`` of tuple ordinals (the
      SSHJoin hash table of Fig. 3, right), with per-gram frequencies.  See
      :mod:`repro.joins.fastpath` for the interner and the probe fast path.

    Each index remembers how many stored tuples it has absorbed
    (``*_synced``).  Indexing is lazy: only the index the opposite side is
    currently probing gets updated tuple-by-tuple; the other one lags and is
    brought up to date by :meth:`catch_up_exact` / :meth:`catch_up_qgram`
    when an adaptive switch requires it.  The number of tuples indexed
    during such a catch-up is exactly the switch cost of Sec. 2.3.
    """

    def __init__(
        self,
        side: JoinSide,
        attribute: str,
        q: int = 3,
        padded_qgrams: bool = True,
        interner: Optional[GramInterner] = None,
        gram_verification: str = "bitset",
    ) -> None:
        if q <= 0:
            raise ValueError(f"q must be positive, got {q}")
        # Gram bitsets are the only verification path; the keyword stays
        # for callers that still name it and accepts nothing else.
        if gram_verification != "bitset":
            raise ValueError(
                f"gram_verification must be 'bitset', got {gram_verification!r}"
            )
        self.side = side
        self.attribute = attribute
        self.q = q
        self.padded_qgrams = padded_qgrams
        if interner is None:
            interner = GramInterner(q=q, padded=padded_qgrams)
        elif interner.q != q or interner.padded != padded_qgrams:
            raise ValueError(
                f"interner tokenises (q={interner.q}, padded={interner.padded}), "
                f"side expects (q={q}, padded={padded_qgrams})"
            )
        #: Shared gram↔id mapping; the engine passes one interner to both
        #: sides so a value interned at insertion is a cache hit when it
        #: probes the opposite side.
        self.interner = interner
        self.tuples: List[StoredTuple] = []
        self._exact_index: Dict[str, List[StoredTuple]] = {}
        self._exact_synced = 0
        # q-gram index over dense gram ids: gram id → array of ordinals.
        self._qgram_index: Dict[int, array] = {}
        self._qgram_synced = 0
        # Gram bitsets of indexed tuples by ordinal (the interner's ints,
        # shared by equal values): bit ``i`` set iff the value has gram id
        # ``i``.  A probe gets a candidate's exact shared-gram count with
        # one C-level ``(probe_bits & stored_bits).bit_count()``.
        self._gram_bits: List[int] = []
        # Length-filter self-profiling (deterministic, per probe stream):
        # once enough filtered probes accumulate, a filter that rejects too
        # few scanned entries to pay for its bounds tests is switched off
        # for the rest of the run (sticky).
        self._length_filter_disabled = False
        self._filter_probes = 0
        self._filter_scanned = 0
        self._filter_rejected = 0
        # Distinct-gram count per ordinal (dense, append-ordered with the
        # catch-up) — the length filter reads this in the hot loop.
        self._gram_counts: array = array("i")
        # Attribute position, resolved once per schema identity.
        self._attr_schema: Optional[Schema] = None
        self._attr_position = 0
        self.counters = OperationCounters()

    # -- insertion -------------------------------------------------------------

    def add(self, record: Record) -> StoredTuple:
        """Store a newly scanned tuple (without indexing it yet)."""
        schema = record.schema
        if schema is not self._attr_schema:
            self._attr_position = schema.position(self.attribute)
            self._attr_schema = schema
        value = record.value_at(self._attr_position)
        if value is None:
            value = ""
        stored = StoredTuple(record=record, value=str(value), ordinal=len(self.tuples))
        self.tuples.append(stored)
        return stored

    @property
    def size(self) -> int:
        """Number of tuples scanned from this side so far."""
        return len(self.tuples)

    # -- index maintenance -------------------------------------------------------

    @property
    def exact_lag(self) -> int:
        """Tuples stored but not yet in the exact (value) index."""
        return len(self.tuples) - self._exact_synced

    @property
    def qgram_lag(self) -> int:
        """Tuples stored but not yet in the q-gram index."""
        return len(self.tuples) - self._qgram_synced

    def catch_up_exact(self) -> int:
        """Bring the value index up to date; return the number of tuples indexed."""
        tuples = self.tuples
        synced = self._exact_synced
        if synced == len(tuples):
            return 0
        index = self._exact_index
        for stored in tuples[synced:]:
            index.setdefault(stored.value, []).append(stored)
        caught_up = len(tuples) - synced
        self.counters.exact_hash_updates += caught_up
        self._exact_synced = len(tuples)
        return caught_up

    def catch_up_qgram(self) -> int:
        """Bring the q-gram index up to date; return the number of tuples indexed."""
        caught_up = 0
        tuples = self.tuples
        total = len(tuples)
        if self._qgram_synced >= total:
            return 0
        index = self._qgram_index
        gram_bits = self._gram_bits
        gram_counts = self._gram_counts
        counters = self.counters
        entry = self.interner.entry
        while self._qgram_synced < total:
            stored = tuples[self._qgram_synced]
            ordinal = stored.ordinal
            gram_ids, bits = entry(stored.value)
            counters.qgrams_obtained += len(gram_ids)
            counters.approx_hash_updates += len(gram_ids)
            gram_counts.append(len(gram_ids))
            gram_bits.append(bits)
            for gram_id in gram_ids:
                bucket = index.get(gram_id)
                if bucket is None:
                    index[gram_id] = bucket = array("i")
                bucket.append(ordinal)
            self._qgram_synced += 1
            caught_up += 1
        return caught_up

    def catch_up_for(self, probing_mode: JoinMode) -> Callable[[], int]:
        """The catch-up method of the index ``probing_mode`` probes."""
        if probing_mode is JoinMode.EXACT:
            return self.catch_up_exact
        return self.catch_up_qgram

    def index_for_mode(self, probing_mode: JoinMode) -> int:
        """Make the index required by ``probing_mode`` current.

        Returns the number of tuples that had to be caught up (0 during
        steady-state operation, > 0 immediately after a switch).
        """
        return self.catch_up_for(probing_mode)()

    def _probe_plan(self, value: str) -> Tuple[List[int], array, int]:
        """The probe plan for ``value``: ``(ordered ids, lengths, bitset)``.

        The ordering is the probe's distinct gram ids sorted by increasing
        bucket length — the reverse-frequency order of Sec. 2.2 — with ties
        broken by first-occurrence position (a stable, deterministic order);
        ``lengths`` are those bucket lengths, in the same order, read from
        the index once so that the probe never looks a bucket up just to
        measure it.  The bitset is the interner's, which the verification
        loop ANDs candidates against.
        """
        gram_ids, probe_bits = self.interner.entry(value)
        buckets = map(self._qgram_index.get, gram_ids, repeat(()))
        lengths = list(map(len, buckets))
        # A stable index sort: equal lengths keep first-occurrence order.
        order = sorted(range(len(lengths)), key=lengths.__getitem__)
        ordered = [gram_ids[position] for position in order]
        lengths.sort()
        return ordered, array("i", lengths), probe_bits

    # -- probing ---------------------------------------------------------------

    def probe_exact(self, value: str) -> List[StoredTuple]:
        """Return the stored tuples whose join-attribute value equals ``value``.

        The caller must have made the exact index current (see
        :meth:`index_for_mode`).
        """
        self.counters.exact_probes += 1
        bucket = self._exact_index.get(value, ())
        self.counters.exact_probe_work += len(bucket)
        return list(bucket)

    def probe_qgram(
        self,
        value: str,
        similarity_threshold: float,
        verify_jaccard: bool = False,
        use_prefix_filter: bool = True,
        use_length_filter: bool = True,
    ) -> List[Tuple[StoredTuple, float]]:
        """Return stored tuples that approximately match ``value`` on q-grams.

        Implements the SSJoin-style probe of Sec. 2.2 with the
        reverse-frequency optimisation: the probe's q-grams are visited in
        increasing bucket-length order; only the first ``g − k + 1`` grams
        may *add* candidates to the set ``T(t)``, the remaining (frequent)
        grams merely increment the counters of candidates already present.

        The match decision follows the paper's operator literally: a
        candidate ``t'`` matches when its shared-gram counter reaches
        ``k = ⌈θ_sim · g⌉``, where ``g`` is the number of (distinct) q-grams
        of the probe value ("the tuples that are retrieved at least ``k``
        times are returned as part of the match").  With
        ``verify_jaccard=True`` the stricter set-Jaccard test
        ``sim(q(t), q(t')) ≥ θ_sim`` is applied on top of the counter test,
        which makes the operator's result identical to a nested-loop
        Jaccard similarity join (useful as a correctness oracle).

        ``use_length_filter`` layers the Jaccard length filter under the
        prefix filter: a bucket entry whose distinct-gram count ``g'`` falls
        outside :func:`~repro.joins.fastpath.jaccard_length_bounds` is never
        admitted into ``T(t)``.  Filtered entries still count one unit of
        candidate-scan work (the entry *was* scanned) but could never pass
        the match decision anyway, so the match set is identical with the
        filter on or off; only ``|T(t)|`` (and, under ``verify_jaccard``,
        the number of doomed verifications) shrinks.  Disable it for the
        ablation benchmarks.

        Returns ``(stored_tuple, similarity)`` pairs, where the similarity
        reported is always the q-gram Jaccard coefficient of the pair.  The
        caller must have made the q-gram index current.
        """
        counters = self.counters
        counters.approx_probes += 1
        if use_length_filter and self._length_filter_disabled:
            # Self-profiling verdict (see _note_filter_outcome): the filter
            # rejected too little on this probe stream to pay for its
            # bounds tests.  Match set is identical either way.
            use_length_filter = False
        ordered, lengths, probe_bits = self._probe_plan(value)
        gram_count = len(ordered)
        counters.qgrams_obtained += gram_count
        if gram_count == 0:
            return []
        required = max(1, math.ceil(similarity_threshold * gram_count))
        required = min(required, gram_count)

        if use_prefix_filter:
            inserting_prefix = max(gram_count - required + 1, 1)
        else:
            # Ablation: disable the reverse-frequency prefix optimisation and
            # let every probe gram add candidates (larger T(t), same result).
            inserting_prefix = gram_count
        index = self._qgram_index
        scan_work = 0

        # -- candidate generation: scan the ``g − k + 1`` rarest grams'
        # buckets; only these may add members to T(t).  Each candidate
        # carries its number of prefix hits (counted in C), which the count
        # filter below reads.  Empty buckets (unseen grams) sort first and
        # add nothing.
        hits: Counter = Counter()
        for position in range(inserting_prefix):
            length = lengths[position]
            if length:
                scan_work += length
                hits.update(index[ordered[position]])
        candidates: Dict[int, int] = hits
        if use_length_filter:
            # A candidate whose distinct-gram count is out of bounds never
            # enters T(t); every scanned entry of it counts as rejected.
            min_grams, max_grams = jaccard_length_bounds(
                gram_count, similarity_threshold, verify_jaccard, required=required
            )
            gram_counts = self._gram_counts
            candidates = {
                ordinal: count
                for ordinal, count in hits.items()
                if min_grams <= gram_counts[ordinal] <= max_grams
            }
            kept = sum(candidates.values())
            self._note_filter_outcome(scan_work, scan_work - kept)
        n_candidates = len(candidates)

        # -- count filter: a candidate sharing ``h`` of the ``s`` scanned
        # grams shares at most ``h + (g − s)`` in all, so only candidates
        # with ``h ≥ k − (g − s)`` can reach ``k``.  After the prefix alone
        # that bound is 1 (every candidate); scanning the next-rarest
        # bucket too, bumping only existing candidates, raises it to 2.
        # That bucket is scanned only when it is no longer than T(t) —
        # the rule the seed's frequent-gram pass used to choose between
        # scanning a bucket and scanning T(t) — so the extra scan is never
        # longer than the candidate set it filters.
        scanned = inserting_prefix
        if scanned < gram_count and lengths[scanned] <= n_candidates:
            if lengths[scanned]:
                for ordinal in candidates.keys() & index[ordered[scanned]]:
                    candidates[ordinal] += 1
            scanned += 1
        min_hits = required - (gram_count - scanned)

        # -- frequent-gram accounting: the seed scanned each remaining
        # bucket (or, for very long buckets, the candidate set — whichever
        # is shorter) purely to bump counters of *existing* candidates; the
        # candidate set itself no longer changes.  The bitset intersection
        # below subsumes that work, so only Table 1's operation-3 work units
        # are charged here, exactly as the scan would have counted them
        # (``lengths`` ascends: the buckets before ``cut`` are the short ones).
        cut = bisect_right(lengths, n_candidates, inserting_prefix)
        scan_work += sum(lengths[inserting_prefix:cut])
        scan_work += n_candidates * (gram_count - cut)
        counters.candidate_scan_work += scan_work
        counters.candidate_set_size += n_candidates

        matches: List[Tuple[StoredTuple, float]] = []
        tuples = self.tuples
        gram_bits = self._gram_bits
        gram_counts = self._gram_counts
        for ordinal, count in candidates.items():
            if count < min_hits:
                continue
            shared = (probe_bits & gram_bits[ordinal]).bit_count()
            if shared < required:
                continue
            counters.approx_verifications += 1
            similarity = jaccard_from_shared(shared, gram_count, gram_counts[ordinal])
            if verify_jaccard and similarity < similarity_threshold:
                continue
            matches.append((tuples[ordinal], similarity))
        return matches

    def _note_filter_outcome(self, scanned: int, rejected: int) -> None:
        """Accumulate length-filter profiling; disable it when unproductive.

        After ``LENGTH_FILTER_SAMPLE_PROBES`` filtered probes, if fewer
        than ``LENGTH_FILTER_MIN_REJECT_RATE`` of all scanned bucket
        entries were rejected, the filter's bounds tests cost more than
        they save and the side turns it off for the rest of the run
        (sticky, and deterministic given the probe stream — the decision
        depends only on probes seen so far, so serial re-runs and
        single-shard runs stay bit-identical).
        """
        self._filter_probes += 1
        self._filter_scanned += scanned
        self._filter_rejected += rejected
        if (
            not self._length_filter_disabled
            and self._filter_probes >= LENGTH_FILTER_SAMPLE_PROBES
            and self._filter_scanned > 0
            and self._filter_rejected
            < LENGTH_FILTER_MIN_REJECT_RATE * self._filter_scanned
        ):
            self._length_filter_disabled = True

    @property
    def length_filter_disabled(self) -> bool:
        """Whether self-profiling has switched the length filter off."""
        return self._length_filter_disabled

    # -- introspection -------------------------------------------------------------

    def average_exact_bucket_length(self) -> float:
        """``B_ex`` of Table 1: average value-bucket length."""
        if not self._exact_index:
            return 0.0
        return sum(len(b) for b in self._exact_index.values()) / len(self._exact_index)

    def average_qgram_bucket_length(self) -> float:
        """``B_ap`` of Table 1: average q-gram-bucket length."""
        if not self._qgram_index:
            return 0.0
        return sum(len(b) for b in self._qgram_index.values()) / len(self._qgram_index)

    def __repr__(self) -> str:
        return (
            f"SideState({self.side.value}, tuples={len(self.tuples)}, "
            f"exact_synced={self._exact_synced}, qgram_synced={self._qgram_synced})"
        )
