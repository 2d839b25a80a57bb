"""Independent reference implementations used only by tests.

Everything here but :func:`window_stage`, :func:`mention_spans` and
:func:`coref_clusters` is written as straight-line loops from the primitive
definitions (lexical overlap triple, per-stage maxima, gate, tie-breaks,
sentence rules, threshold candidates, bootstrap draws, report keys) and
shares no code with the package, so it can serve as a brute-force oracle for
the scoring engine, the segmenter, the report renderer and the benchmark
harness. :func:`mention_spans` and :func:`coref_clusters` take the heuristic
resolver's word lists from the package; the first finds mentions with the
one-alternation pattern tried at every character, the second finds them in
two scans with patterns of its own and links them with a plain scan. Keep it
dumb; speed and reuse are non-goals.
"""

from __future__ import annotations

import re
import statistics

_WORDS = re.compile(r"[^\W_]+", re.UNICODE)


def mock_triple(premise: str, hypothesis: str) -> tuple[float, float, float]:
    p = set(_WORDS.findall(premise.lower()))
    h = set(_WORDS.findall(hypothesis.lower()))
    o = len(p & h) / len(h) if h else 0.0
    if ("not" in p) != ("not" in h):
        e, n, c = 0.0, 1.0 - o, o
    else:
        e, n, c = o, 1.0 - o, 0.0
    total = e + n + c
    if total != 1.0:
        e, n, c = e / total, n / total, c / total
    return e, n, c


def mock_score(premise: str, hypothesis: str) -> float:
    e, _, c = mock_triple(premise, hypothesis)
    return e - c


def oracle_verdict(
    doc,
    claim,
    *,
    window_size: int,
    gate_threshold: float,
    max_coref_variants: int,
    monotone_gate: bool = False,
) -> dict:
    """Full per-claim result computed the slow way.

    Returns {"score", "stage", "sub_scores", "granularity", "start", "end",
    "premise", "substitution"} for comparison against the engine's verdict.
    """
    sentences = [s.text for s in doc.sentences]
    hypothesis = claim.text

    sent_scores = [mock_score(text, hypothesis) for text in sentences]
    sent_best = max(sent_scores)
    anchor = sent_scores.index(sent_best)
    anchor_text = sentences[anchor]

    # Enumerate single-substitution variants of the anchor sentence.
    in_anchor = []
    for cluster in doc.coref_clusters:
        for mention in cluster.mentions:
            if mention.sentence_index == anchor:
                in_anchor.append((mention, cluster))
    in_anchor.sort(key=lambda pair: (pair[0].start, pair[0].end))
    variants: list[tuple[str, tuple[str, str]]] = []
    for mention, cluster in in_anchor:
        if len(variants) >= max_coref_variants:
            break
        used = {mention.surface}
        for other in cluster.mentions:
            if other.surface in used:
                continue
            used.add(other.surface)
            text = anchor_text[: mention.start] + other.surface + anchor_text[mention.end :]
            variants.append((text, (mention.surface, other.surface)))
            if len(variants) >= max_coref_variants:
                break

    candidates = [anchor_text] + [text for text, _ in variants]
    coref_scores = [mock_score(text, hypothesis) for text in candidates]
    coref_best = max(coref_scores)
    winner = coref_scores.index(coref_best)
    if winner == 0:
        coref_view = ("sentence", anchor, anchor, anchor_text, None)
    else:
        text, substitution = variants[winner - 1]
        coref_view = ("coref_sentence", anchor, anchor, text, substitution)

    sub = {"sentence": sent_best, "coref": coref_best}
    if coref_best >= gate_threshold:
        granularity, start, end, premise, substitution = coref_view
        return {
            "score": coref_best,
            "stage": "coref",
            "sub_scores": sub,
            "granularity": granularity,
            "start": start,
            "end": end,
            "premise": premise,
            "substitution": substitution,
        }

    n = len(sentences)

    def best_window(k: int) -> tuple[float, int]:
        k = min(k, n)
        scores = []
        for i in range(n - k + 1):
            scores.append(mock_score(" ".join(sentences[i : i + k]), hypothesis))
        top = max(scores)
        return top, scores.index(top)

    window_score, window_start = best_window(window_size)
    document_score, _ = best_window(n)
    sub["window"] = window_score
    sub["document"] = document_score
    multi = max(window_score, document_score)

    if monotone_gate and coref_best > multi:
        granularity, start, end, premise, substitution = coref_view
        return {
            "score": coref_best,
            "stage": "coref",
            "sub_scores": sub,
            "granularity": granularity,
            "start": start,
            "end": end,
            "premise": premise,
            "substitution": substitution,
        }

    if window_score > document_score:
        k = min(window_size, n)
        return {
            "score": multi,
            "stage": "multi_granularity",
            "sub_scores": sub,
            "granularity": "window",
            "start": window_start,
            "end": window_start + k - 1,
            "premise": " ".join(sentences[window_start : window_start + k]),
            "substitution": None,
        }
    return {
        "score": multi,
        "stage": "multi_granularity",
        "sub_scores": sub,
        "granularity": "document",
        "start": 0,
        "end": n - 1,
        "premise": " ".join(sentences),
        "substitution": None,
    }


def verdict_to_view(verdict) -> dict:
    """Flatten an engine ClaimVerdict into the oracle's comparison shape."""
    substitution = None
    if verdict.aligned.substitution is not None:
        substitution = (
            verdict.aligned.substitution.replaced,
            verdict.aligned.substitution.replacement,
        )
    return {
        "score": verdict.score,
        "stage": verdict.stage,
        "sub_scores": dict(verdict.sub_scores),
        "granularity": verdict.aligned.granularity,
        "start": verdict.aligned.sentence_start,
        "end": verdict.aligned.sentence_end,
        "premise": verdict.aligned.premise_text,
        "substitution": substitution,
    }


def report_dict(report) -> dict:
    """A report as the dict its JSONL line encodes, key for key and in order.

    ``sub_scores`` lists the stages a verdict computed in pipeline order
    (sentence, coref, window, document); a missing substitution is ``None``.
    """
    verdicts = []
    for verdict in report.verdicts:
        aligned = verdict.aligned
        substitution = None
        if aligned.substitution is not None:
            substitution = {
                "replaced": aligned.substitution.replaced,
                "replacement": aligned.substitution.replacement,
            }
        sub_scores = {}
        for stage in ("sentence", "coref", "window", "document"):
            if stage in verdict.sub_scores:
                sub_scores[stage] = verdict.sub_scores[stage]
        verdicts.append(
            {
                "claim": {
                    "summary_id": verdict.claim.summary_id,
                    "index": verdict.claim.index,
                    "text": verdict.claim.text,
                },
                "score": verdict.score,
                "stage": verdict.stage,
                "aligned": {
                    "granularity": aligned.granularity,
                    "sentence_start": aligned.sentence_start,
                    "sentence_end": aligned.sentence_end,
                    "premise_text": aligned.premise_text,
                    "substitution": substitution,
                },
                "sub_scores": sub_scores,
            }
        )
    return {
        "summary_id": report.summary_id,
        "score": report.score,
        "verdicts": verdicts,
        "claims_fallback": report.claims_fallback,
        "params": {
            "j": report.params.window_size,
            "T": report.params.gate_threshold,
            "max_coref_variants": report.params.max_coref_variants,
        },
    }


def window_stage(scorer, doc, claim, k: int):
    """The engine's best k-window of ``doc`` for ``claim``, as ``(score, span)``.

    Unlike the rest of this module it drives the package: one wave of the
    scorer's own selection rule over its own window candidates, with a memo
    of its own. It shows a stage on its own where a verdict cannot: a window
    at any ``k``, or the window and document spans of a claim whose verdict
    another stage won.
    """
    from sumfact.scoring import WindowTable

    table = WindowTable(doc, scorer.backend, {})
    k = min(k, table.n)
    candidates = table.candidates(k, table.room(claim.text))
    request = (candidates, claim, "document" if k == table.n else "window")
    wave = scorer._wave([request], True, {}, table.sizes, None)
    next(wave)
    try:
        wave.send(None)
    except StopIteration as done:
        return done.value[0]
    raise AssertionError("a wave paused twice")


def window_candidates(sentences, k: int, room, measure):
    """Every k-window of ``sentences`` (``k`` clamped to ``n``) or its chunks, joined afresh.

    Rows are ``(granularity, start, end, text)``, lowest start first. A
    window that does not fit ``room`` (``None``: everything fits) is replaced
    by runs grown one sentence at a time while they fit, each starting half
    the previous run past the last start (stride at least 1). A sentence that
    alone does not fit gives ``("oversized", index)`` instead of rows.
    """
    n = len(sentences)
    k = min(k, n)
    out = []
    for start in range(n - k + 1):
        runs = []
        if room is None or measure(" ".join(sentences[start : start + k])) <= room:
            runs.append((start, k))
        else:
            cursor = start
            limit = start + k
            while True:
                fit = 0
                while cursor + fit < limit:
                    if measure(" ".join(sentences[cursor : cursor + fit + 1])) > room:
                        break
                    fit += 1
                if fit == 0:
                    return ("oversized", cursor)
                runs.append((cursor, fit))
                if cursor + fit >= limit:
                    break
                cursor += max(1, fit // 2)
        for first, length in runs:
            granularity = "document" if length == n else "window"
            text = " ".join(sentences[first : first + length])
            out.append((granularity, first, first + length - 1, text))
    return out


def mention_spans(text: str) -> list[tuple[int, int]]:
    """Spans of the heuristic resolver's mention candidates in ``text``.

    One scan with one alternation, tried at every character: a run of
    capitalized words, or else a lowercase pronoun as a whole word.
    """
    from sumfact.coref import _PRONOUNS

    alternation = re.compile(
        r"[A-Z][A-Za-z'’-]*(?:\s+[A-Z][A-Za-z'’-]*)*|\b(?:%s)\b" % "|".join(sorted(_PRONOUNS))
    )
    return [m.span() for m in alternation.finditer(text)]


def coref_clusters(document, max_sentences=None) -> list[list[tuple[int, int, int, str]]]:
    """The heuristic resolver's clusters, as ``(sentence, start, end, surface)`` rows.

    Capitalized runs are names unless every word is a capitalized stop word,
    or pronouns when they are one pronoun; lowercase pronouns outside those
    runs are pronouns too. Names group by lowercased surface, in order of
    first appearance. Each pronoun joins the group of the name nearest
    before it, found by looking at every name. Groups of one are dropped.
    """
    from sumfact.coref import _CAP_STOP, _PRONOUNS

    name_run = re.compile(r"[A-Z][A-Za-z'’-]*(?:\s+[A-Z][A-Za-z'’-]*)*")
    lower_pronoun = re.compile(r"\b(?:%s)\b" % "|".join(_PRONOUNS))
    names, pronouns = [], []
    for s in document.sentences[:max_sentences]:
        taken = []
        for m in name_run.finditer(s.text):
            tokens = [t.lower() for t in _WORDS.findall(m.group())]
            if not tokens:
                continue
            row = (s.index, m.start(), m.end(), m.group())
            if len(tokens) == 1 and tokens[0] in _PRONOUNS:
                pronouns.append(row)
                taken.append((m.start(), m.end()))
            elif all(t in _CAP_STOP for t in tokens):
                continue
            else:
                names.append(row)
                taken.append((m.start(), m.end()))
        for m in lower_pronoun.finditer(s.text):
            if not any(a <= m.start() < b for a, b in taken):
                pronouns.append((s.index, m.start(), m.end(), m.group()))
    groups: dict[str, list] = {}
    for name in names:
        groups.setdefault(name[3].lower(), []).append(name)
    for pronoun in pronouns:
        best = None
        for name in names:
            if name[:2] < pronoun[:2] and (best is None or name[:2] > best[:2]):
                best = name
        if best is not None:
            groups[best[3].lower()].append(pronoun)
    return [sorted(rows) for rows in groups.values() if len(rows) >= 2]


def segment_spans(text: str, abbreviations) -> list[tuple[int, int, int, str]]:
    """Rule segmentation as ``(index, start, end, text)`` rows, one character at a time.

    A run of ``.!?`` plus any closing quotes or brackets ends a sentence when
    whitespace or the end of text follows, unless the run is a single period
    after a token in ``abbreviations``. Spans are trimmed of whitespace; an
    empty result stands for the segmenter's ``EmptyDocument``.
    """
    terminals = ".!?"
    closers = "\"')]}»”’"
    abbreviations = {a.lower() for a in abbreviations}
    spans = []
    n = len(text)
    i = 0
    sent_start = 0
    while i < n:
        if text[i] not in terminals:
            i += 1
            continue
        run_start = i
        while i + 1 < n and text[i + 1] in terminals:
            i += 1
        run_end = i
        while i + 1 < n and text[i + 1] in closers:
            i += 1
        boundary = i + 1 >= n or text[i + 1].isspace()
        if boundary and run_start == run_end and text[run_start] == ".":
            token_start = run_start
            while token_start > 0 and not text[token_start - 1].isspace():
                token_start -= 1
            token = text[token_start:run_start].strip("\"'([{").lower()
            if token in abbreviations:
                boundary = False
        i += 1
        if boundary:
            spans.append((sent_start, i))
            sent_start = i
    if sent_start < n:
        spans.append((sent_start, n))
    rows = []
    for start, end in spans:
        while start < end and text[start].isspace():
            start += 1
        while end > start and text[end - 1].isspace():
            end -= 1
        if start < end:
            rows.append((len(rows), start, end, text[start:end]))
    return rows


def balanced_accuracy(predictions, golds) -> float:
    """``(TPR + TNR) / 2`` over parallel lists holding both gold classes."""
    tp = fp = tn = fn = 0
    for pred, gold in zip(predictions, golds):
        if gold and pred:
            tp += 1
        elif gold:
            fn += 1
        elif pred:
            fp += 1
        else:
            tn += 1
    tpr = tp / (tp + fn)
    tnr = tn / (tn + fp)
    return (tpr + tnr) / 2


def tune_threshold(scores, golds):
    """Brute-force threshold search as ``(threshold, balanced_accuracy, confusion)``.

    Binarizes every record at every candidate: the sentinels below the
    minimum and above the maximum and the midpoints of consecutive distinct
    scores, keeping strict improvements only. ``confusion`` is a
    ``{"tp", "fp", "tn", "fn"}`` dict. Returns None when the golds hold a
    single class.
    """
    if all(golds) or not any(golds):
        return None
    distinct = sorted(set(scores))
    candidates = [distinct[0] - 1.0]
    for a, b in zip(distinct, distinct[1:]):
        candidates.append((a + b) / 2)
    candidates.append(distinct[-1] + 1.0)
    best = None
    for threshold in candidates:
        predictions = [score >= threshold for score in scores]
        ba = balanced_accuracy(predictions, golds)
        if best is None or ba > best[1]:
            confusion = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
            for pred, gold in zip(predictions, golds):
                key = ("t" if pred == gold else "f") + ("p" if pred else "n")
                confusion[key] += 1
            best = (threshold, ba, confusion)
    return best


def bootstrap_std(scores, golds, threshold, rng, resamples):
    """Bootstrap spread of balanced accuracy with one ``rng.randrange`` per draw.

    Resamples holding a single gold class are skipped; with none left the
    result is None.
    """
    n = len(scores)
    values = []
    for _ in range(resamples):
        indices = [rng.randrange(n) for _ in range(n)]
        sample_golds = [golds[i] for i in indices]
        if all(sample_golds) or not any(sample_golds):
            continue
        sample_preds = [scores[i] >= threshold for i in indices]
        values.append(balanced_accuracy(sample_preds, sample_golds))
    if not values:
        return None
    return statistics.pstdev(values)
