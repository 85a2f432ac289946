"""Fast-path machinery of the approximate probe pipeline.

The SSHJoin probe of :meth:`repro.joins.base.SideState.probe_qgram` is the
hot loop of every approximate phase: each scanned tuple tokenises its join-
attribute value, sorts the grams by bucket frequency and scans the buckets
to build the candidate set ``T(t)``.  In the seed implementation all of
this was string-keyed pure Python; this module supplies the pieces that
make it fast while keeping the operator semantics of Sec. 2.2 intact:

* :class:`GramInterner` — maps q-grams to dense integer ids, so the q-gram
  hash table becomes ``int → array('i')`` and the hot candidate-counting
  loop hashes small ints instead of strings.  The interner also caches the
  tokenisation of whole values (value → gram ids and their bitset), which
  turns repeated probes/insertions of the same value into a dictionary hit;
  that cache holds at most ``_VALUE_CACHE_LIMIT`` values.
* :func:`distinct_qgrams` — the *deterministic* distinct-gram ordering used
  throughout the fast path.  ``qgram_set`` returns a ``frozenset`` whose
  iteration order depends on the process hash seed; the probe pipeline
  instead visits grams in first-occurrence order so that equal-frequency
  grams sort identically in every run (and so the naive reference below is
  counter-for-counter comparable with the fast path).
* :func:`jaccard_length_bounds` — the length filter ``⌈θ·g⌉ ≤ g' ≤ ⌊g/θ⌋``
  applied before candidate counting.  The lower bound is sound under the
  paper's counter-test semantics (a candidate with fewer than ``⌈θ·g⌉``
  distinct grams can never share ``⌈θ·g⌉`` of them); the upper bound is
  only sound under the strict Jaccard test and is therefore applied only
  when the probe verifies Jaccard.
* :class:`NaiveQGramProber` — the pre-refactor (seed) probe pipeline kept
  verbatim as a reference: string-keyed buckets, per-probe re-sorting
  through a Python key function, no interning, no length filter.  The
  equivalence property test asserts that the fast path returns
  the same match sets and identical :class:`OperationCounters`, and
  ``benchmarks/bench_probe_fastpath.py`` measures the fast path against it.

Counter accounting note: tokenisation *caching* never changes the
``qgrams_obtained`` counter — the counters reproduce the paper's logical
cost model (Table 1), in which every probe and every insertion obtains the
value's grams, regardless of machine-level memoisation.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.similarity.qgrams import qgrams

#: Values whose tokenisation a :class:`GramInterner` keeps; the cache is
#: cleared wholesale when it fills (values re-intern cheaply, ids are stable).
_VALUE_CACHE_LIMIT = 65536


def distinct_qgrams(text: str, q: int = 3, padded: bool = True) -> List[str]:
    """Distinct q-grams of ``text`` in first-occurrence (deterministic) order."""
    return list(dict.fromkeys(qgrams(text, q=q, padded=padded)))


def jaccard_length_bounds(
    gram_count: int,
    similarity_threshold: float,
    verify_jaccard: bool,
    required: Optional[int] = None,
) -> Tuple[int, int]:
    """Admissible distinct-gram counts ``g'`` of a candidate, as ``(lo, hi)``.

    ``lo`` is the probe's counter-test threshold ``k = ⌈θ·g⌉`` — the filter
    is only sound because ``shared ≤ min(g, g')``, so ``lo`` must be
    *exactly* the ``required`` count the probe matches against.  Callers
    that have already computed it pass it via ``required`` so the two can
    never drift apart.  ``hi = ⌊g/θ⌋`` only holds when the strict Jaccard
    test is applied (``sim ≤ g/g'``), so without ``verify_jaccard`` the
    upper bound is unbounded.  The division is guarded with a small slack
    so that a candidate sitting exactly on the bound is *kept* (and then
    rejected by the exact verification), never wrongly excluded by float
    rounding.
    """
    if required is None:
        required = min(max(1, math.ceil(similarity_threshold * gram_count)), gram_count)
    if not verify_jaccard:
        return required, (1 << 62)
    hi = int(math.floor(gram_count / similarity_threshold + 1e-9))
    return required, hi


class GramInterner:
    """Bidirectional q-gram ↔ dense-integer-id mapping with a value cache.

    One interner is shared by both sides of a
    :class:`~repro.joins.engine.SymmetricJoinEngine`, so a value interned
    when it was stored on one side is a cache hit when it later probes the
    other side.  Ids are assigned in first-intern order and never reused.
    The value cache holds at most ``_VALUE_CACHE_LIMIT`` values.
    """

    __slots__ = ("q", "padded", "_ids", "_grams", "_value_cache")

    def __init__(self, q: int = 3, padded: bool = True) -> None:
        if q <= 0:
            raise ValueError(f"q must be positive, got {q}")
        self.q = q
        self.padded = padded
        self._ids: Dict[str, int] = {}
        self._grams: List[str] = []
        self._value_cache: Dict[str, Tuple[Tuple[int, ...], Optional[int]]] = {}

    def __len__(self) -> int:
        return len(self._grams)

    def intern(self, gram: str) -> int:
        """Return the id of ``gram``, assigning a fresh one if unseen."""
        gid = self._ids.get(gram)
        if gid is None:
            gid = len(self._grams)
            self._ids[gram] = gid
            self._grams.append(gram)
        return gid

    def gram(self, gram_id: int) -> str:
        """Reverse lookup: the gram string behind ``gram_id``."""
        return self._grams[gram_id]

    def entry(self, value: str) -> Tuple[Tuple[int, ...], int]:
        """``(ids, bits)`` of ``value``: :meth:`intern_value`'s ids and their
        gram bitset (bit ``i`` set ⇔ id ``i``).

        Both are cached together, so a value inserted on one side and
        probed on the other builds its bitset once.
        """
        cached = self._value_cache.get(value)
        if cached is None or cached[1] is None:
            ids = self.intern_value(value)
            bits = 0
            for gram_id in ids:
                bits |= 1 << gram_id
            cached = self._value_cache[value] = (ids, bits)
        return cached

    def intern_value(self, value: str) -> Tuple[int, ...]:
        """Distinct gram ids of ``value``, in first-occurrence order.

        Grams already interned are looked up; only the misses are interned,
        in first-occurrence order, so the ids are those that interning every
        gram in turn would assign.  The result is cached per value (without
        a bitset until :meth:`entry` asks for one, so callers that only
        need ids never hold bitsets); the cache is bounded and cleared
        wholesale when full (values re-intern cheaply, ids are stable).
        """
        cached = self._value_cache.get(value)
        if cached is not None:
            return cached[0]
        grams = dict.fromkeys(qgrams(value, q=self.q, padded=self.padded))
        ids = tuple(map(self._ids.get, grams))
        if None in ids:
            intern = self.intern
            ids = tuple(
                intern(gram) if gram_id is None else gram_id
                for gram, gram_id in zip(grams, ids)
            )
        if len(self._value_cache) >= _VALUE_CACHE_LIMIT:
            self._value_cache.clear()
        self._value_cache[value] = (ids, None)
        return ids


class NaiveQGramProber:
    """The seed (pre-refactor) q-gram index and probe, kept as a reference.

    Mirrors the string-keyed ``SideState`` q-gram machinery exactly as it
    stood before the fast-path refactor — ``dict.setdefault`` list buckets,
    a per-probe ``sorted(..., key=self.gram_frequency)`` through a Python
    key function, no interning, no length filter — except that grams are
    visited in the deterministic :func:`distinct_qgrams` order (the seed
    iterated a ``frozenset``, whose order varies with the hash seed) so
    that counter traces are reproducible and comparable.

    Maintains its own :class:`~repro.joins.base.OperationCounters` with the
    same accounting as the real side state, including the fix that the
    re-tokenisation fallback during verification counts its grams.
    """

    def __init__(self, q: int = 3, padded: bool = True) -> None:
        # Imported here rather than at module level: ``repro.joins.base``
        # imports this module for the interner, so a top-level import back
        # into ``base`` would be circular.
        from repro.joins.base import OperationCounters

        self.q = q
        self.padded = padded
        self.counters = OperationCounters()
        self._index: Dict[str, List[int]] = {}
        self._gram_lists: Dict[int, List[str]] = {}
        self._gram_sets: Dict[int, FrozenSet[str]] = {}
        self._values: List[str] = []

    @property
    def size(self) -> int:
        return len(self._values)

    def add(self, value: str) -> int:
        """Store and immediately index ``value``; return its ordinal."""
        ordinal = len(self._values)
        self._values.append(value)
        grams = distinct_qgrams(value, q=self.q, padded=self.padded)
        self.counters.qgrams_obtained += len(grams)
        self._gram_lists[ordinal] = grams
        self._gram_sets[ordinal] = frozenset(grams)
        for gram in grams:
            self._index.setdefault(gram, []).append(ordinal)
            self.counters.approx_hash_updates += 1
        return ordinal

    def gram_frequency(self, gram: str) -> int:
        return len(self._index.get(gram, ()))

    def probe(
        self,
        value: str,
        similarity_threshold: float,
        verify_jaccard: bool = False,
        use_prefix_filter: bool = True,
    ) -> List[Tuple[int, float]]:
        """The seed probe algorithm; returns ``(ordinal, similarity)`` pairs."""
        counters = self.counters
        counters.approx_probes += 1
        probe_grams = distinct_qgrams(value, q=self.q, padded=self.padded)
        counters.qgrams_obtained += len(probe_grams)
        gram_count = len(probe_grams)
        if gram_count == 0:
            return []
        required = max(1, math.ceil(similarity_threshold * gram_count))
        required = min(required, gram_count)

        ordered = sorted(probe_grams, key=self.gram_frequency)
        if use_prefix_filter:
            inserting_prefix = max(gram_count - required + 1, 1)
        else:
            inserting_prefix = gram_count
        candidates: Dict[int, int] = {}
        for index, gram in enumerate(ordered):
            bucket = self._index.get(gram, ())
            if index < inserting_prefix:
                counters.candidate_scan_work += len(bucket)
                for ordinal in bucket:
                    candidates[ordinal] = candidates.get(ordinal, 0) + 1
            elif len(bucket) <= len(candidates):
                counters.candidate_scan_work += len(bucket)
                for ordinal in bucket:
                    if ordinal in candidates:
                        candidates[ordinal] += 1
            else:
                counters.candidate_scan_work += len(candidates)
                for ordinal in candidates:
                    if gram in self._gram_sets[ordinal]:
                        candidates[ordinal] += 1
        counters.candidate_set_size += len(candidates)

        matches: List[Tuple[int, float]] = []
        for ordinal, shared in candidates.items():
            if shared < required:
                continue
            counters.approx_verifications += 1
            stored_grams = self._gram_sets.get(ordinal)
            if stored_grams is None:
                stored_grams = frozenset(
                    distinct_qgrams(self._values[ordinal], q=self.q, padded=self.padded)
                )
                counters.qgrams_obtained += len(stored_grams)
            union = gram_count + len(stored_grams) - shared
            similarity = shared / union if union else 1.0
            if verify_jaccard and similarity < similarity_threshold:
                continue
            matches.append((ordinal, similarity))
        return matches
