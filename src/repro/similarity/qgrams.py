"""q-gram tokenisation.

The set of q-grams of a string ``s``, denoted ``q(s)`` in the paper, is the
set of all substrings obtained by sliding a window of width ``q`` over
``s``.  The paper uses ``q = 3`` and counts ``|jA| + q − 1`` grams for a
join-attribute value of length ``|jA|``, which corresponds to *padded*
q-grams: the string is framed with ``q − 1`` copies of a padding character
on each side, so that every character participates in exactly ``q`` grams
and short strings still produce tokens.

Both padded and unpadded variants are provided; the SSHJoin operator uses
the padded variant to match the paper's cost accounting.
"""

from __future__ import annotations

from typing import FrozenSet, List

PADDING_CHAR = "¤"  # unlikely to occur in real join-attribute values


def qgrams(text: str, q: int = 3, padded: bool = True) -> List[str]:
    """Return the list of q-grams of ``text`` in sliding-window order.

    Parameters
    ----------
    text:
        The string to tokenise.  ``None`` is treated as the empty string.
    q:
        Window width; must be a positive integer.
    padded:
        When true (default) the string is framed with ``q − 1`` padding
        characters on each side, yielding ``len(text) + q − 1`` grams — the
        count used throughout the paper's cost analysis.  When false, plain
        substrings are used and strings shorter than ``q`` yield a single
        gram equal to the whole string (or none if empty).

    Examples
    --------
    >>> qgrams("abc", q=3, padded=False)
    ['abc']
    >>> len(qgrams("abc", q=3, padded=True))
    5
    """
    if q <= 0:
        raise ValueError(f"q must be a positive integer, got {q}")
    if text is None:
        text = ""
    if not text:
        return []
    if padded:
        framed = PADDING_CHAR * (q - 1) + text + PADDING_CHAR * (q - 1)
        return [framed[i : i + q] for i in range(len(text) + q - 1)]
    if len(text) < q:
        return [text]
    return [text[i : i + q] for i in range(len(text) - q + 1)]


def qgram_set(text: str, q: int = 3, padded: bool = True) -> FrozenSet[str]:
    """Return the *set* ``q(s)`` of distinct q-grams of ``text``."""
    return frozenset(qgrams(text, q=q, padded=padded))
