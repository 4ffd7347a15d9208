"""Annotation tiers: automatic LEXI generation, edits, landmark tiers."""
from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .features import FeatureInventory, LookupError_
from .lexicon import Lexicon, LexiconParseError, parse_label
from .textgrid import Interval, IntervalTier, Point, PointTier, TextGridError

if TYPE_CHECKING:       # a transcription is only read, never built, here
    from .corpus import TranscribedSentence


class AnnotationError(ValueError):
    pass


def generate_lexi_tier(word_tier: IntervalTier, lex: Lexicon,
                       transcription: TranscribedSentence | None = None
                       ) -> IntervalTier:
    """The LEXI tier: each word interval split into phoneme intervals.

    Every labelled word interval becomes one interval per phoneme token,
    labelled with stressed ARPAbet.  Geminates get twice the unit width.
    With a transcription, word-initial syntactic doubling replaces the
    initial singleton label by its geminate.
    """
    words = word_tier.labelled()
    doubled = {}
    if transcription is not None:
        if len(transcription.words) != len(words):
            raise AnnotationError(
                f'transcription has {len(transcription.words)} words but '
                f'the Word tier has {len(words)} labelled intervals')
        doubled = dict(transcription.doubling_events)
    out = []
    widx = 0
    for iv in word_tier.items:
        if not iv.label:
            out.append(iv)
            continue
        try:
            entry = lex.entry(iv.label)
        except LookupError_:
            raise AnnotationError(
                f'word {iv.label!r} at [{iv.t_start}, {iv.t_end}] '
                'not in the lexicon') from None
        labels = entry.labels()
        weights = [2 if t.phoneme.geminate else 1 for t in entry.phonemes]
        if widx in doubled:
            gem = doubled[widx]
            base = entry.phonemes[0].phoneme
            if base.geminate or gem.singleton_base != base.ipa:
                raise AnnotationError(
                    f'doubling {gem.arpabet} does not match initial '
                    f'phoneme of {entry.orthography}')
            labels[0] = gem.arpabet
            weights[0] = 2
        span = iv.t_end - iv.t_start
        total = sum(weights)
        bounds = [iv.t_start]
        acc = 0
        for w in weights[:-1]:
            acc += w
            bounds.append(iv.t_start + span * acc / total)
        bounds.append(iv.t_end)
        for i, lab in enumerate(labels):
            out.append(Interval(bounds[i], bounds[i + 1], lab))
        widx += 1
    return IntervalTier('LEXI', out)


class LabelEdit(NamedTuple):
    index: int
    label: str


class BoundaryEdit(NamedTuple):
    """Move the boundary between interval `index` and `index + 1`."""
    index: int
    time: float


def apply_modifications(lexi: IntervalTier, edits,
                        inv: FeatureInventory) -> IntervalTier:
    """A new tier with the edits applied; the input is left untouched.
    A new label is checked as the lexicon checks one (`parse_label`)."""
    items = list(lexi.items)
    for edit in edits:
        if isinstance(edit, LabelEdit):
            if not 0 <= edit.index < len(items):
                raise AnnotationError(f'no interval at index {edit.index}')
            try:
                parse_label(edit.label, inv)
            except LexiconParseError as e:
                raise AnnotationError(str(e)) from None
            old = items[edit.index]
            items[edit.index] = Interval(old.t_start, old.t_end, edit.label)
        elif isinstance(edit, BoundaryEdit):
            if not 0 <= edit.index < len(items) - 1:
                raise AnnotationError(f'no boundary at index {edit.index}')
            left, right = items[edit.index], items[edit.index + 1]
            if not (left.t_start < edit.time < right.t_end):
                raise AnnotationError(
                    f'boundary edit at index {edit.index} violates ordering')
            items[edit.index] = Interval(left.t_start, edit.time, left.label)
            items[edit.index + 1] = Interval(edit.time, right.t_end,
                                             right.label)
        else:
            raise AnnotationError(f'unknown edit {edit!r}')
    return IntervalTier(lexi.name, items)


_MANNER_CODE = {'sonorant': '+son', 'continuant': '+cont',
                'noncontinuant': '-cont'}


def landmark_label(lm) -> str:
    kind = lm.kind.value
    base = {'Vowel': 'V', 'Glide': 'G', 'ConsonantClosure': 'C-cl',
            'ConsonantRelease': 'C-rel'}[kind]
    if lm.manner is not None:
        return f'{base}:{_MANNER_CODE[lm.manner.value]}'
    return base


def landmark_tier_from(landmarks) -> PointTier:
    """The Landmark tier: one labelled point per landmark; input must be
    time-ordered."""
    times = [lm.time for lm in landmarks]
    if times != sorted(times):
        raise AnnotationError('landmarks not time-ordered')
    try:
        return PointTier('Landmark', [Point(lm.time, landmark_label(lm))
                                      for lm in landmarks])
    except TextGridError as e:
        raise AnnotationError(str(e)) from None
