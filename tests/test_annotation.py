import pytest

from lamit.annotation import (AnnotationError, generate_lexi_tier,
                              landmark_label, landmark_tier_from)
from lamit.corpus import parse_transcription
from lamit.landmarks import Landmark, LandmarkKind, Manner
from lamit.textgrid import Interval, IntervalTier

SENTENCE_36 = "'mamma 'e ppa'pa 'tti 'vɔʎʎono 'bɛne"
WORDS_36 = ['MAMMA', 'E', 'PAPÀ', 'TI', 'VOGLIONO', 'BENE']
LEXI_36 = ['M', 'AA1', 'MM', 'AA', 'EY1', 'PP', 'AA', 'P', 'AA1',
           'TT', 'IY1', 'V', 'AO1', 'LHLH', 'OW', 'N', 'OW',
           'B', 'EH1', 'N', 'EY']


def word_tier(words, dur=0.5):
    return IntervalTier('Word', [Interval(i * dur, (i + 1) * dur, w)
                                 for i, w in enumerate(words)])


def test_lexi_sentence_36_golden(lamit_lexicon, italian):
    sent = parse_transcription(SENTENCE_36, italian, 36)
    tier = generate_lexi_tier(word_tier(WORDS_36), lamit_lexicon, sent)
    assert [iv.label for iv in tier.items] == LEXI_36


def test_lexi_spans_tile_words_exactly(lamit_lexicon, italian):
    sent = parse_transcription(SENTENCE_36, italian, 36)
    words = word_tier(WORDS_36, dur=0.37)
    tier = generate_lexi_tier(words, lamit_lexicon, sent)
    # no gaps or overlaps, and word edges are hit exactly
    for a, b in zip(tier.items, tier.items[1:]):
        assert a.t_end == b.t_start
    starts = {iv.t_start for iv in tier.items}
    for w in words.items:
        assert w.t_start in starts
    assert tier.items[-1].t_end == words.items[-1].t_end


def test_lexi_single_phoneme_word(lamit_lexicon):
    tier = generate_lexi_tier(word_tier(['A'], dur=1.0), lamit_lexicon)
    assert len(tier.items) == 1
    assert tier.items[0] == Interval(0.0, 1.0, 'AA1')


def test_lexi_geminate_double_width(lamit_lexicon):
    tier = generate_lexi_tier(
        IntervalTier('Word', [Interval(0.0, 0.5, 'MAMMA')]), lamit_lexicon)
    assert [iv.label for iv in tier.items] == ['M', 'AA1', 'MM', 'AA']
    widths = [iv.t_end - iv.t_start for iv in tier.items]
    # unit widths 1:1:2:1 over 0.5 s
    assert widths == pytest.approx([0.1, 0.1, 0.2, 0.1])


def test_lexi_unknown_word(lamit_lexicon):
    with pytest.raises(AnnotationError, match='XYZZY'):
        generate_lexi_tier(word_tier(['XYZZY']), lamit_lexicon)


def test_lexi_word_count_mismatch(lamit_lexicon, italian):
    sent = parse_transcription("'a", italian)
    with pytest.raises(AnnotationError, match='words'):
        generate_lexi_tier(word_tier(['MAMMA', 'BENE']), lamit_lexicon, sent)


def test_lexi_keeps_unlabelled_gaps(lamit_lexicon):
    words = IntervalTier('Word', [Interval(0, 0.4, 'MAMMA'),
                                  Interval(0.4, 0.6, ''),
                                  Interval(0.6, 1.0, 'BENE')])
    tier = generate_lexi_tier(words, lamit_lexicon)
    labels = [iv.label for iv in tier.items]
    assert labels == ['M', 'AA1', 'MM', 'AA', '', 'B', 'EH1', 'N', 'EY']


def test_lexi_case_folds(lamit_lexicon):
    tier = generate_lexi_tier(word_tier(['mamma']), lamit_lexicon)
    assert [iv.label for iv in tier.items] == ['M', 'AA1', 'MM', 'AA']


def test_doubling_must_match_the_initial_phoneme(lamit_lexicon, italian):
    sent = parse_transcription("'mamma 'e tta'pa", italian, 1)
    with pytest.raises(AnnotationError, match='^doubling TT does not match '
                       'initial phoneme of PAPÀ$'):
        generate_lexi_tier(word_tier(['MAMMA', 'E', 'PAPÀ']),
                           lamit_lexicon, sent)


# ---------------------------------------------------------- landmark tier

def test_landmark_tier_labels():
    lms = [Landmark(0.12, LandmarkKind.VOWEL, strength=10),
           Landmark(0.30, LandmarkKind.RELEASE, Manner.SONORANT, 5)]
    tier = landmark_tier_from(lms)
    assert [(p.time, p.label) for p in tier.items] == [
        (0.12, 'V'), (0.30, 'C-rel:+son')]


def test_landmark_label_codes():
    assert landmark_label(Landmark(0, LandmarkKind.GLIDE)) == 'G'
    assert landmark_label(
        Landmark(0, LandmarkKind.CLOSURE, Manner.NONCONTINUANT)) == \
        'C-cl:-cont'
    assert landmark_label(
        Landmark(0, LandmarkKind.RELEASE, Manner.CONTINUANT)) == \
        'C-rel:+cont'


def test_landmark_tier_empty():
    assert landmark_tier_from([]).items == ()


def test_landmark_tier_requires_order():
    lms = [Landmark(0.3, LandmarkKind.VOWEL),
           Landmark(0.1, LandmarkKind.VOWEL)]
    with pytest.raises(AnnotationError, match='order'):
        landmark_tier_from(lms)


def test_landmark_tier_from_detector(lamit_lexicon):
    import synth
    from lamit.landmarks import detect_all
    audio, release_t, _ = synth.cv_syllable()
    seq = detect_all(audio)
    tier = landmark_tier_from(seq.items)
    labels = [p.label for p in tier.items]
    assert labels[0].startswith('C-rel')
    assert 'V' in labels
    assert tier.items[0].time < tier.items[labels.index('V')].time
