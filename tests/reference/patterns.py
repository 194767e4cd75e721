"""Naive references for pattern mining, scoring and assignment (3.3, 4).

:func:`reference_extract` and :func:`reference_patterns` are the pattern
builder's former kernel: one :func:`find_occurrences` scan per
significant phrase per training paper, then a :class:`Pattern` for every
raw key, scored one by one and fully sorted before the
``max_regular_patterns`` cut.  :func:`reference_score` is the pattern
scorer's former kernel: for each paper, each section and each token, try
every pattern whose middle starts with that token, in pattern order, and
add ``score * M(P, pt)`` on a match.  :func:`reference_pattern_contexts`
is the simplified pattern-based paper set of section 4 spelt out: a
paper matches a context when its token stream holds one of the
context's pattern middles, unless more than ``max_middle_coverage`` of
the corpus holds all that middle's words; descendants' papers roll up;
an empty context borrows its closest non-empty ancestor's papers, at
the ontology's rate of decay.
"""

from repro.core.patterns import (
    MATCH_SECTION_WEIGHTS,
    Pattern,
    PatternKind,
    find_occurrences,
    match_strength,
)
from repro.corpus.paper import TEXT_SECTIONS


def reference_extract(training_tokens, significant, window):
    """Per-phrase scan: key -> {'occ': occurrences, 'papers': papers}."""
    counts = {}
    phrases = sorted(significant, key=len, reverse=True)
    for tokens in training_tokens:
        seen_here = set()
        for phrase in phrases:
            for start in find_occurrences(tokens, phrase):
                left = tuple(tokens[max(start - window, 0) : start])
                end = start + len(phrase)
                right = tuple(tokens[end : end + window])
                key = (left, phrase, right)
                entry = counts.setdefault(key, {"occ": 0, "papers": 0})
                entry["occ"] += 1
                if key not in seen_here:
                    entry["papers"] += 1
                    seen_here.add(key)
    return counts


def reference_patterns(builder, term_id, training_ids, raw=None):
    """Score every raw key as a Pattern, sort all, keep the top ones;
    ``raw`` is the training papers' :func:`reference_extract`, if taken."""
    context_words = builder._context_term_words(term_id)
    training_tokens = [builder.tokens.all_tokens(pid) for pid in training_ids]
    significant = builder._significant_terms(context_words, training_tokens)
    if raw is None:
        raw = reference_extract(training_tokens, significant, builder.window)
    n_training = len(training_tokens)
    papers_by_middle = {}
    for (_, middle, __), stats in raw.items():
        papers_by_middle[middle] = papers_by_middle.get(middle, 0) + stats["papers"]
    context_word_set = set(context_words)
    patterns = []
    for (left, middle, right), stats in raw.items():
        middle_type = builder._middle_type_score(middle, context_word_set, significant)
        total_term = sum(
            builder._word_selectivity(word)
            for word in middle
            if word in context_word_set
        )
        occ_freq = stats["occ"] / max(n_training, 1)
        paper_freq = min(papers_by_middle[middle] / max(n_training, 1), 1.0)
        base = middle_type + total_term + builder.frequency_coefficient * (
            occ_freq + paper_freq
        )
        coverage = builder._paper_coverage(middle)
        score = base * (1.0 / coverage) ** builder.coverage_exponent
        patterns.append(Pattern(left, middle, right, PatternKind.REGULAR, score))
    patterns.sort(key=lambda p: (-p.score, p.key()))
    patterns = patterns[: builder.max_regular_patterns]
    if builder.build_extended:
        patterns.extend(builder._side_joined(patterns))
        patterns.extend(builder._middle_joined(patterns))
    return patterns


def by_first_middle_word(pattern_set):
    """Index patterns by the first word of their middle, for scanning."""
    result = {}
    for pattern in pattern_set.patterns:
        if pattern.middle:
            result.setdefault(pattern.middle[0], []).append(pattern)
    return result


def reference_score(pattern_set, token_cache, paper_ids, middle_only=False):
    """Score(P) = sum of Score(pt) * M(P, pt), one token at a time."""
    by_first = by_first_middle_word(pattern_set)
    if not by_first:
        return dict.fromkeys(paper_ids, 0.0)
    scores = {}
    for paper_id in paper_ids:
        total = 0.0
        for section in TEXT_SECTIONS:
            tokens = token_cache.tokens(paper_id, section)
            if not tokens:
                continue
            section_weight = MATCH_SECTION_WEIGHTS.get(section, 0.6)
            for i, token in enumerate(tokens):
                for pattern in by_first.get(token, ()):
                    n = len(pattern.middle)
                    if tuple(tokens[i : i + n]) != pattern.middle:
                        continue
                    if middle_only:
                        total += pattern.score * section_weight
                    else:
                        total += pattern.score * match_strength(
                            pattern, tokens, i, section
                        )
        scores[paper_id] = total
    return scores


def _holds(tokens, middle):
    return any(
        tuple(tokens[i : i + len(middle)]) == middle
        for i in range(len(tokens) - len(middle) + 1)
    )


def reference_pattern_contexts(
    ontology, token_cache, paper_ids, patterns, training, max_middle_coverage
):
    """The pattern-based contexts of ``patterns`` (term id -> its pattern
    list), in term order, as ``(term id, paper ids, training ids,
    inherited from, decay)`` tuples."""
    streams = {pid: token_cache.all_tokens(pid) for pid in paper_ids}
    words = {pid: set(tokens) for pid, tokens in streams.items()}
    cut = max_middle_coverage * max(len(streams), 1)
    own = {}
    for term_id in ontology.term_ids():
        own[term_id] = set()
        for middle in {pattern.middle for pattern in patterns[term_id]}:
            covered = [pid for pid in streams if set(middle) <= words[pid]]
            if middle and len(covered) <= cut:
                own[term_id].update(
                    pid for pid in covered if _holds(streams[pid], middle)
                )
    rolled = {
        term_id: own[term_id].union(*(own[d] for d in ontology.descendants(term_id)))
        for term_id in ontology.term_ids()
    }
    contexts = []
    for term_id in ontology.term_ids():
        papers, inherited_from, decay = rolled[term_id], None, 1.0
        donors = [a for a in ontology.ancestors(term_id) if rolled[a]]
        if not papers and donors:
            inherited_from = min(donors, key=lambda a: (-ontology.level(a), a))
            papers = rolled[inherited_from]
            decay = ontology.rate_of_decay(inherited_from, term_id)
        if papers:
            kept = tuple(pid for pid in training.get(term_id, ()) if pid in streams)
            contexts.append(
                (term_id, tuple(sorted(papers)), kept, inherited_from, decay)
            )
    return contexts
