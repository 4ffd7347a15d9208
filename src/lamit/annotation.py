"""Annotation tiers: automatic LEXI generation, landmark tiers."""
from __future__ import annotations

from typing import TYPE_CHECKING

from .features import LookupError_
from .lexicon import Lexicon
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
