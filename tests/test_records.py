"""The record rule, walked: every record lamit returns is read-only.

Each record the pipeline returns for the synth `concatenated` utterance
and for the shipped data is walked, through every field, mapping value
and tuple item it holds; the walk names each list, dict, set or
writeable array it meets by the record type and field holding it."""
import copy
import enum

import numpy as np
import pytest

from lamit import access, annotation, corpus, dsp, features, landmarks
from lamit import lexicon as lexicon_mod
from lamit import textgrid
from lamit.config import AnalysisConfig

import synth

_LEAVES = (str, bytes, int, float, bool, type(None), enum.Enum, np.generic)


def _writeable(x) -> bool:
    """Whether x is a container its holder could change in place."""
    if isinstance(x, np.ndarray):
        return bool(x.flags.writeable)
    if isinstance(x, (list, set, bytearray)):
        return True
    if isinstance(x, dict):
        probe = copy.copy(x)        # of its own type: try a new key
        try:
            probe['probe'] = None
        except TypeError:
            return False
        return True
    return False


def _held(x):
    """(name, value) of each thing x holds, or None for a leaf."""
    if isinstance(x, _LEAVES) or isinstance(x, np.ndarray):
        return None
    if isinstance(x, tuple) and hasattr(x, '_fields'):     # NamedTuple
        return list(zip(x._fields, x))
    if isinstance(x, features.Frozen):
        return list(vars(x).items())
    if hasattr(x, 'items'):             # dict, proxy or bundle
        return [(f'[{k!r}]', v) for k, v in x.items()]
    if isinstance(x, (tuple, list, set, frozenset)):
        return [(f'[{i}]', v) for i, v in enumerate(x)]
    raise TypeError(f'the walk does not know {type(x).__name__}')


def mutable_fields(*roots) -> set[str]:
    """'Type.field' for each list, dict, set or writeable array held
    anywhere below the roots (a root itself is named 'root')."""
    found = set()
    seen = set()
    todo = [('root', r) for r in roots]
    while todo:
        where, x = todo.pop()
        if _writeable(x):
            found.add(where)
        if id(x) in seen:
            continue
        seen.add(id(x))
        for name, value in _held(x) or ():
            # items of a container are named by the record holding it
            todo.append((where if name.startswith('[') else
                         f'{type(x).__name__}.{name}', value))
    return found


@pytest.fixture(scope='module')
def shipped():
    """The records made from the shipped data files."""
    inv = features.load_italian()
    lex = lexicon_mod.load_lamit_lexicon(inv)
    text = (features.DATA_DIR / 'lamit_transcriptions.tsv').read_text('utf-8')
    sentences = corpus.parse_corpus(text, inv)
    return {'inventory': inv, 'english': features.load_english(),
            'lexicon': lex, 'phoneme_index': lex.phoneme_index,
            'corpus': sentences,
            'frequencies': corpus.phoneme_frequencies(sentences, inv)}


@pytest.fixture(scope='module')
def concatenated(shipped):
    """The records the pipeline returns for the synth `concatenated`
    utterance, matched within its word document."""
    audio = synth.utterances()['concatenated']
    params = dsp.parameter_frames(audio, AnalysisConfig())
    seq = landmarks.detect_landmarks(params.tracks)
    doc = textgrid.parse_textgrid(
        textgrid.serialize_textgrid(synth.word_doc(audio.duration)))
    lex = shipped['lexicon']
    segments = access.cues_to_bundles(seq, params)
    broad = access.cues_to_bundles(
        landmarks.parse_landmarks_csv(landmarks.landmarks_csv(seq)))
    matches, orphans = access.match_in_word_intervals(doc, segments, lex)
    lexi = doc.with_tier(annotation.generate_lexi_tier(doc.tier('Word'),
                                                       lex))
    return {'parameters': params, 'landmarks': seq, 'segments': segments,
            'broad segments': broad, 'matches': matches, 'orphans': orphans,
            'document': doc,
            'lexi document': lexi.with_tier(annotation.landmark_tier_from(
                seq.items))}


def test_the_walk_reaches_every_kind_of_record(shipped, concatenated):
    assert concatenated['segments'] and concatenated['broad segments']
    assert any(not m.no_evidence for m in concatenated['matches'])
    # the walk names what it finds, in records and in bare containers
    seg = concatenated['segments'][0]
    assert mutable_fields(seg._replace(bundle=dict(seg.bundle)),
                          [seg], np.zeros(1)) == \
        {'EstimatedSegment.bundle', 'root'}
    with pytest.raises(TypeError, match='does not know object'):
        mutable_fields(object())


@pytest.mark.parametrize('source', ['shipped', 'concatenated'])
def test_every_record_is_read_only(request, source):
    records = request.getfixturevalue(source)
    # the lists the functions return are not records: their items are
    roots = [r for v in records.values()
             for r in (v if isinstance(v, list) else [v])]
    assert mutable_fields(*roots) == set()


def test_every_bundle_is_read_only(shipped, concatenated):
    """Whatever made it, a bundle's mutators raise TypeError."""
    lex = shipped['lexicon']
    made = [features.features_of(shipped['inventory'], 'mm'),
            lexicon_mod.expand_word(lex, 'MAMMA')[0],
            concatenated['segments'][0].bundle,
            concatenated['broad segments'][0].bundle,
            features.FeatureBundle({'vowel': features.PLUS})]
    for bundle in made:
        before = dict(bundle)
        for mutate in (lambda b: b.__setitem__('nasal', features.MINUS),
                       lambda b: b.__delitem__('vowel'),
                       lambda b: b.pop('vowel'),
                       lambda b: b.popitem(),
                       lambda b: b.setdefault('lat', features.PLUS),
                       lambda b: b.update(nasal=features.MINUS),
                       lambda b: b.__ior__({'nasal': features.MINUS}),
                       lambda b: b.clear()):
            with pytest.raises(TypeError):
                mutate(bundle)
        assert bundle == before
