"""String-similarity substrate.

The paper measures string similarity with the Jaccard coefficient over
q-grams (q = 3 by default).  This package implements that measure together
with the q-gram tokenisation the SSHJoin operator needs.
"""

from repro.similarity.qgrams import PADDING_CHAR, qgram_set, qgrams
from repro.similarity.setsim import jaccard_qgram_similarity, jaccard_similarity

__all__ = [
    "PADDING_CHAR",
    "qgrams",
    "qgram_set",
    "jaccard_similarity",
    "jaccard_qgram_similarity",
]
