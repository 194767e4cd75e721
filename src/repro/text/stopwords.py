"""English stopword list.

A moderately sized list in the spirit of the classic SMART/Glasgow lists,
trimmed to words that actually occur in scientific prose.  Kept as a frozen
set so callers can rely on it being immutable and hashable-membership fast;
the analyser tests lowercased tokens against it.

>>> "the" in STOPWORDS, "kinase" in STOPWORDS
(True, False)
"""

from __future__ import annotations

from typing import FrozenSet

STOPWORDS: FrozenSet[str] = frozenset(
    """
    a about above after again against all also although always am among an
    and any are aren't as at be because been before being below between both
    but by can cannot could couldn't did didn't do does doesn't doing don't
    down during each either few for from further had hadn't has hasn't have
    haven't having he her here hers herself him himself his how however i if
    in into is isn't it its itself just let's may me might more most mustn't
    my myself neither no nor not of off on once only or other ought our ours
    ourselves out over own per same shan't she should shouldn't since so some
    such than that that's the their theirs them themselves then there these
    they they're this those through thus to too under until up upon us very
    was wasn't we were weren't what when where whether which while who whom
    why will with within without won't would wouldn't yet you your yours
    yourself yourselves
    """.split()
)
