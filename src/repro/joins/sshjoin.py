"""SSHJoin — the approximate symmetric set hash join.

A pipelined, symmetric re-implementation of the SSJoin similarity-join
operator (Chaudhuri, Ganti & Kaushik), as described in Sec. 2.2 of the
paper.  Each side hashes the *q-grams* of the join-attribute values it has
scanned; a scanned tuple probes the other side's q-gram table, builds the
candidate set ``T(t)`` of tuples sharing at least one gram (with the
reverse-frequency / prefix optimisation of the paper) and returns the pairs
whose q-gram Jaccard similarity reaches the threshold ``θ_sim``.

Like SHJoin, the operator is pipelined and exposes quiescent states after
each fully processed scanned tuple, which makes it a legal target (and
source) of adaptive operator replacement.
"""

from __future__ import annotations

from typing import Union

from repro.joins.base import JoinAttribute, JoinMode
from repro.joins.shjoin import InputLike, _SymmetricJoinOperator


class SSHJoin(_SymmetricJoinOperator):
    """Approximate (similarity) symmetric set hash join.

    Parameters
    ----------
    left, right:
        Input tables or record streams.
    attribute:
        Either a single attribute name present in both inputs, or a
        :class:`~repro.joins.base.JoinAttribute` naming one attribute per
        side.
    similarity_threshold:
        ``θ_sim``: the approximate-match threshold (paper: 0.85).  A
        candidate matches when it shares at least ``⌈θ_sim · g⌉`` q-grams
        with the probe value, the operator semantics of Sec. 2.2; pass
        ``verify_jaccard=True`` to additionally require the set-Jaccard
        similarity to reach the threshold (the strict reading of the
        paper's ``sim`` definition).
    q:
        q-gram width (paper: 3).
    verify_jaccard:
        Apply the strict Jaccard verification on top of the counter test.
    use_length_filter:
        False disables the Jaccard length filter of the probe pipeline
        (ablation; the match set is unchanged either way).

    Examples
    --------
    >>> from repro.engine.tuples import Schema
    >>> from repro.engine.table import Table
    >>> schema = Schema(["loc"])
    >>> atlas = Table.from_rows(schema, [["LIG GE GENOVA"]], name="atlas")
    >>> accidents = Table.from_rows(schema, [["LIG GE GENOVa"]], name="acc")
    >>> len(SSHJoin(atlas, accidents, "loc", similarity_threshold=0.8).run())
    1
    """

    _mode = JoinMode.APPROXIMATE

    def __init__(
        self,
        left: InputLike,
        right: InputLike,
        attribute: Union[str, JoinAttribute],
        similarity_threshold: float = 0.85,
        q: int = 3,
        verify_jaccard: bool = False,
        use_length_filter: bool = True,
        name: str = "",
    ) -> None:
        super().__init__(
            left,
            right,
            attribute,
            similarity_threshold=similarity_threshold,
            q=q,
            verify_jaccard=verify_jaccard,
            use_length_filter=use_length_filter,
            name=name or "SSHJoin",
        )
