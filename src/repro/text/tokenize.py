"""Word tokenisation and n-grams.

The corpus is plain ASCII-ish scientific text (titles, abstracts, bodies,
index terms), so a compact regular-expression tokeniser is sufficient and
keeps the whole pipeline dependency-free.  Tokens keep internal hyphens and
apostrophes ("wild-type", "crick's") because biomedical vocabulary leans on
hyphenated compounds; gene-style alphanumerics ("p53", "brca1") survive
intact.
"""

from __future__ import annotations

import re
from typing import List, Sequence, Tuple

_WORD_RE = re.compile(r"[A-Za-z0-9]+(?:[-'][A-Za-z0-9]+)*")

def tokenize(text: str, lowercase: bool = True) -> List[str]:
    """Split ``text`` into word tokens.

    >>> tokenize("DNA-repair in p53 knock-out mice.")
    ['dna-repair', 'in', 'p53', 'knock-out', 'mice']
    """
    if not text:
        return []
    tokens = _WORD_RE.findall(text)
    if lowercase:
        tokens = [token.lower() for token in tokens]
    return tokens


def ngrams(tokens: Sequence[str], n: int) -> List[Tuple[str, ...]]:
    """Return all contiguous ``n``-grams of ``tokens``.

    >>> ngrams(["a", "b", "c"], 2)
    [('a', 'b'), ('b', 'c')]
    """
    if n <= 0:
        raise ValueError(f"n-gram size must be positive, got {n}")
    if len(tokens) < n:
        return []
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
