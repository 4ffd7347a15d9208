"""Command-line surface: stats, lexi, landmarks, match, validate."""
from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# every command reads its config and the inventory, and most read the
# lexicon; every other module is imported inside the commands that use
# it, so a command loads only what it runs: access, dsp and landmarks
# (which need numpy) in the audio commands, corpus in stats, validate
# and lexi, textgrid where a TextGrid is read or written, and annotation
# in lexi and landmarks
from . import features, lexicon
from .config import AnalysisConfig, ConfigError, check_config, \
    parse_config_values, render_config

if TYPE_CHECKING:
    from .textgrid import AnnotationDocument

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_RESOLUTION = 3


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def data_dir() -> Path:
    """The shipped data, or the directory `LAMIT_DATA_DIR` names."""
    override = os.environ.get('LAMIT_DATA_DIR')
    return Path(override) if override else features.DATA_DIR


def _existing(path, what) -> Path:
    path = Path(path)
    if not path.exists():
        raise CliError(f'missing {what}: {path}')
    return path


def _read_text(path, what) -> str:
    """The text of an input file, which must be UTF-8; a leading byte
    order mark is dropped."""
    path = _existing(path, what)
    try:
        return path.read_text('utf-8-sig')
    except UnicodeDecodeError as e:
        raise CliError(f'{what} {path} is not UTF-8 text '
                       f'({e.reason} at byte {e.start})') from None


def _data_text(explicit, name) -> str:
    return _read_text(explicit or data_dir() / name, 'file')


def _load_config(args) -> AnalysisConfig:
    """The defaults, overridden by each --config file in turn; values
    that constrain each other are checked once, on the result."""
    values = {}
    for name in args.config or ():
        text = _read_text(name, 'config file')
        try:
            values.update(parse_config_values(text))
        except ConfigError as e:
            raise CliError(f'bad config: {name}: {e}') from None
    try:
        return check_config(AnalysisConfig(**values))
    except ConfigError as e:
        raise CliError(f'bad config: {e}') from None


def _inventory_text(args) -> str:
    return _data_text(args.inventory, 'italian_features.tsv')


def _lexicon_text(args) -> str:
    return _data_text(args.lexicon, 'lamit_lexicon.tsv')


# The files are read on every call; their parses are kept by text, so a
# process that calls main again on the same data parses it once.  The
# records are immutable, so calls can share them; a parse that raises
# is not kept.
@functools.lru_cache(maxsize=1)
def _parse_inventory(text: str) -> features.FeatureInventory:
    try:
        return features.load_inventory(text)
    except features.InventoryError as e:
        raise CliError(f'inventory: {e}', EXIT_VALIDATION) from None


@functools.lru_cache(maxsize=1)
def _parse_lexicon(text: str, inventory_text: str) -> lexicon.Lexicon:
    try:
        return lexicon.load_lexicon(text, _parse_inventory(inventory_text))
    except lexicon.LexiconParseError as e:
        raise CliError(f'lexicon: {e}', EXIT_VALIDATION) from None


def _read_word_doc(args) -> AnnotationDocument:
    """The --textgrid document, which must have a Word interval tier."""
    from .textgrid import IntervalTier, TextGridError, parse_textgrid
    path = _existing(args.textgrid, 'TextGrid')
    try:
        doc = parse_textgrid(path.read_bytes())
    except TextGridError as e:
        raise CliError(f'TextGrid {path}: {e}') from None
    if not doc.has_tier('Word'):
        raise CliError('input has no Word tier', EXIT_RESOLUTION)
    if not isinstance(doc.tier('Word'), IntervalTier):
        raise CliError('input Word tier is not an interval tier',
                       EXIT_RESOLUTION)
    return doc


def _write_output(args, text):
    if args.out:
        Path(args.out).write_text(text, encoding='utf-8')
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- stats

def cmd_stats(args, cfg) -> int:
    from . import corpus
    inv = _parse_inventory(_inventory_text(args))
    text = _data_text(args.corpus, 'lamit_transcriptions.tsv')
    try:
        sentences = corpus.parse_corpus(text, inv)
        table = corpus.phoneme_frequencies(sentences, inv)
    except corpus.TranscriptionError as e:
        raise CliError(f'corpus: {e}', EXIT_VALIDATION) from None
    _write_output(args, corpus.frequency_csv(table))
    if args.out:
        print(f'{"phoneme":>8} {"arpabet":>8} {"count":>6} {"percent":>8}')
        for p, n in table.rows():
            print(f'{p.ipa:>8} {p.arpabet:>8} {n:6d} '
                  f'{table.percent(p):8.2f}')
        print(f'{"total":>8} {"":>8} {table.total:6d} {100.0:8.2f}')
    return EXIT_OK


# ----------------------------------------------------------------- lexi

def _read_sentence(args, inv):
    """The --sentence of the --transcription file (default: its first)."""
    from . import corpus
    text = _read_text(args.transcription, 'transcription')
    try:
        sentences = corpus.parse_corpus(text, inv)
    except corpus.TranscriptionError as e:
        raise CliError(f'transcription: {e}', EXIT_VALIDATION) from None
    for sent in sentences:
        if args.sentence is None or sent.id == args.sentence:
            return sent
    raise CliError(f'sentence {args.sentence} not found', EXIT_RESOLUTION)


def cmd_lexi(args, cfg) -> int:
    from . import annotation
    from .textgrid import serialize_textgrid
    if not args.out:
        raise CliError('--out is required for lexi')
    if args.sentence is not None and not args.transcription:
        raise CliError('--sentence needs --transcription')
    inventory_text = _inventory_text(args)
    inv = _parse_inventory(inventory_text)
    lex = _parse_lexicon(_lexicon_text(args), inventory_text)
    doc = _read_word_doc(args)
    sent = _read_sentence(args, inv) if args.transcription else None
    try:
        tier = annotation.generate_lexi_tier(doc.tier('Word'), lex, sent)
    except annotation.AnnotationError as e:
        raise CliError(str(e), EXIT_RESOLUTION) from None
    text = serialize_textgrid(doc.with_tier(tier))
    Path(args.out).write_text(text, encoding='utf-8')
    print(f'wrote {args.out} ({len(tier.labelled())} phoneme intervals)')
    return EXIT_OK


# ------------------------------------------------------------ landmarks

def cmd_landmarks(args, cfg) -> int:
    from . import annotation, dsp, landmarks
    from .textgrid import AnnotationDocument, serialize_textgrid
    path = _existing(args.wav, 'wav')
    try:
        audio = dsp.read_wav(path)
        seq = landmarks.detect_all(audio, cfg)
    except (dsp.DspError, landmarks.LandmarkError) as e:
        raise CliError(f'{path}: {e}') from None
    out = args.out or path.with_suffix('')
    csv_path, tg_path = Path(f'{out}.csv'), Path(f'{out}.TextGrid')
    csv_path.write_text(landmarks.landmarks_csv(seq), encoding='utf-8')
    tier = annotation.landmark_tier_from(seq.items)
    tg_path.write_text(
        serialize_textgrid(AnnotationDocument(audio.duration, [tier])),
        encoding='utf-8')
    print(f'wrote {csv_path} and {tg_path} ({len(seq.items)} landmarks)')
    return EXIT_OK


# ---------------------------------------------------------------- match

def _segments_from_args(args, cfg):
    from . import access, dsp, landmarks
    if args.wav:
        source = _existing(args.wav, 'input')
        # one analysis pass: the detectors read the cue parameters' tracks
        try:
            params = dsp.parameter_frames(dsp.read_wav(source), cfg)
            seq = landmarks.detect_landmarks(params.tracks)
            return access.cues_to_bundles(seq, params)
        except (dsp.DspError, landmarks.LandmarkError) as e:
            raise CliError(f'{source}: {e}') from None
    # landmark CSV: broad-class evidence only
    text = _read_text(args.landmarks, 'input')
    try:
        seq = landmarks.parse_landmarks_csv(text)
    except landmarks.LandmarkError as e:
        raise CliError(f'{args.landmarks}: {e}') from None
    return access.cues_to_bundles(seq)


def cmd_match(args, cfg) -> int:
    from . import access
    if bool(args.wav) == bool(args.landmarks):
        raise CliError('need exactly one of --wav or --landmarks')
    if args.topk < 1:
        raise CliError('--topk must be positive')
    inventory_text = _inventory_text(args)
    _parse_inventory(inventory_text)      # its errors come first
    lex = _parse_lexicon(_lexicon_text(args), inventory_text)
    doc = _read_word_doc(args)
    segments = _segments_from_args(args, cfg)
    try:
        weights = access.DistanceWeights.from_config(cfg)
        matches, orphans = access.match_in_word_intervals(
            doc, segments, lex, weights, args.topk)
    except access.MatchError as e:
        raise CliError(str(e)) from None
    _write_output(args, access.matches_csv(matches))
    if orphans:
        if args.out:
            Path(args.out).with_suffix('.orphans.txt').write_text(
                ''.join(f'{seg.window[0]:.6f},{seg.window[1]:.6f}\n'
                        for seg in orphans), encoding='utf-8')
        print(f'warning: {len(orphans)} orphan segment(s) excluded',
              file=sys.stderr)
    return EXIT_OK


# ------------------------------------------------------------- validate

def _recount_alphabet(inv: features.FeatureInventory):
    """The recount's own reading of `inv`: its multi-character singletons,
    longest first, its geminate -> base map and its vowels and glides."""
    base_of = {p.ipa: p.singleton_base for p in inv.geminates()}
    multi = [ipa for ipa in inv.by_ipa if len(ipa) > 1 and ipa not in base_of]
    vocalic = {p.ipa for p in inv.singletons() if p.major_class in
               (features.MajorClass.VOWEL, features.MajorClass.GLIDE)}
    return sorted(multi, key=len, reverse=True), base_of, vocalic


def _independent_recount(text: str, inv: features.FeatureInventory):
    """Character-level recount used as the corpus counting oracle; it
    shares no code with the corpus parser."""
    import collections
    multi, base_of, vocalic = _recount_alphabet(inv)
    counts = collections.Counter()
    for ln in map(str.strip, text.splitlines()):
        if not ln or ln.startswith('#'):
            continue
        # the text after an `N.<TAB>` prefix, or the whole line
        for word in ln.rpartition('\t')[2].split():
            s = word.replace("'", '')
            merged = []
            while s:
                u = next((u for u in multi if s.startswith(u)), s[0])
                s = s[len(u):]
                if merged[-1:] == [u] and u not in vocalic:
                    merged[-1] = u + u
                else:
                    merged.append(u)
            if merged and merged[0] in base_of:
                merged[0] = base_of[merged[0]]
            counts.update(merged)
    return counts


def cmd_validate(args, cfg) -> int:
    from . import corpus
    passed = []

    def suite(name, fn):
        try:
            detail, ok = fn(), True
        except Exception as e:     # report, do not crash
            detail, ok = e, False
        print(f'{name}: {"PASS" if ok else "FAIL"} - {detail}')
        passed.append(ok)

    inventory_text = _inventory_text(args)
    inv = _parse_inventory(inventory_text)
    # every input is read before the suites run, so an unreadable file is
    # an input error (exit 2), not a failed suite
    lexicon_text = _lexicon_text(args)
    corpus_text = _data_text(args.corpus, 'lamit_transcriptions.tsv')
    reference_text = _data_text(None, 'reference_frequencies.tsv')

    # the inventory constructor refuses twin singleton bundles and gives
    # each geminate its base's bundle; load_lexicon refuses a second stress
    def inventory_suite():
        singles = inv.singletons()
        sizes = {c.value: sum(p.major_class is c for p in singles)
                 for c in features.MajorClass}
        if (sizes['vowel'], sizes['glide'], sizes['consonant']) != (7, 2, 21):
            raise AssertionError(f'bad class partition {sizes}')
        return f'{len(singles)} singletons distinct, partition 7/2/21'

    def lexicon_suite():
        lex = _parse_lexicon(lexicon_text, inventory_text)
        if len(lex) != 563:
            raise AssertionError(f'expected 563 entries, got {len(lex)}')
        return '563 entries resolve, stress is unique'

    @functools.cache
    def corpus_table():
        # both corpus suites read one parse; a failed parse is not cached,
        # so each suite reports it
        return corpus.phoneme_frequencies(
            corpus.parse_corpus(corpus_text, inv), inv)

    def corpus_suite():
        table = corpus_table()
        oracle = _independent_recount(corpus_text, inv)
        mine = {p.ipa: n for p, n in table.counts.items()}
        if mine != dict(oracle):
            diff = {k: (mine.get(k), oracle.get(k))
                    for k in set(mine) | set(oracle)
                    if mine.get(k) != oracle.get(k)}
            raise AssertionError(f'recount mismatch: {diff}')
        return f'{table.total} tokens match the independent recount'

    def frequency_suite():
        table = corpus_table()
        worst = (0.0, '')
        rows = 0
        for lineno, ln in enumerate(reference_text.splitlines(), 1):
            if not ln.strip() or ln.startswith(('#', 'phoneme')):
                continue
            cells = ln.split('\t')
            try:
                if len(cells) != 3:
                    raise ValueError(f'expected 3 cells, got {len(cells)}')
                ipa, _, pct = cells
                if ipa not in inv.by_ipa:
                    raise ValueError(f'unknown phoneme {ipa!r}')
                want = float(pct)
            except ValueError as e:
                raise AssertionError(
                    f'reference_frequencies.tsv line {lineno}: {e}') from None
            have = table.percent(inv.by_ipa[ipa])
            dev = abs(have - want)
            rows += 1
            if dev > worst[0]:
                worst = (dev, ipa)
            if not dev <= 0.15:     # a nan percent fails here too
                raise AssertionError(
                    f'/{ipa}/ deviates {dev:.2f} points '
                    f'({have:.2f} vs {pct})')
        return f'{rows} phonemes within 0.15 points (worst {worst[0]:.2f} ' \
               f'on /{worst[1]}/)'

    suite('inventory-distinctness', inventory_suite)
    suite('lexicon-resolution', lexicon_suite)
    suite('corpus-counting-oracle', corpus_suite)
    suite('frequency-reproduction', frequency_suite)
    print(f'{sum(passed)}/{len(passed)} suites passed')
    return EXIT_OK if all(passed) else EXIT_VALIDATION


# ----------------------------------------------------------------- main

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every call: each subcommand names its `cmd_` function,
    looked up when it runs."""
    parser = argparse.ArgumentParser(
        prog='lamit',
        description='Landmark-based lexical access toolkit for Italian')
    sub = parser.add_subparsers(dest='command', required=True)

    helps = {'inventory': 'feature inventory file',
             'lexicon': 'lexicon file', 'out': 'output path'}

    def common(p, *files):
        for name in files:
            p.add_argument(f'--{name}', help=helps[name])
        p.add_argument('--config', action='append',
                       help='key = value analysis parameters and matcher '
                       'weights; repeatable, later files override earlier')
        p.add_argument('--show-config', action='store_true',
                       help='print the effective configuration and exit')

    p = sub.add_parser('stats', help='phoneme frequency statistics')
    p.add_argument('--corpus', help='transcription file')
    common(p, 'inventory', 'out')

    p = sub.add_parser('lexi', help='generate the predicted phoneme tier')
    p.add_argument('--textgrid', required=True)
    p.add_argument('--transcription', help='transcription file for '
                   'syntactic doubling')
    p.add_argument('--sentence', type=int, help='sentence id to use')
    common(p, 'inventory', 'lexicon', 'out')

    p = sub.add_parser('landmarks', help='detect landmarks in a wav file')
    p.add_argument('--wav', required=True)
    common(p, 'out')

    p = sub.add_parser('match', help='rank word candidates per interval')
    p.add_argument('--wav', help='audio input (full cue extraction)')
    p.add_argument('--landmarks', help='landmark CSV input (broad class '
                   'evidence only)')
    p.add_argument('--textgrid', required=True, help='Word tier TextGrid')
    p.add_argument('--topk', type=int, default=10)
    common(p, 'inventory', 'lexicon', 'out')

    p = sub.add_parser('validate', help='run the shipped-data checks')
    p.add_argument('--corpus', help='transcription file')
    common(p, 'inventory', 'lexicon')
    return parser


def _input_errors() -> tuple[type[Exception], ...]:
    """The parse errors of the data files, which end a command with
    exit 1.  An except clause evaluates this only when an exception
    reaches it, so no command imports corpus or textgrid for them."""
    from .corpus import TranscriptionError
    from .textgrid import TextGridError
    return (features.InventoryError, lexicon.LexiconParseError,
            TranscriptionError, TextGridError)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    try:
        # every command reads and checks its --config, used or not
        cfg = _load_config(args)
        if args.show_config:
            print(render_config(cfg), end='')
            return EXIT_OK
        return globals()[f'cmd_{args.command}'](args, cfg)
    except CliError as e:
        print(f'error: {e}', file=sys.stderr)
        return e.code
    except _input_errors() as e:
        print(f'error: {e}', file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f'error: {e}', file=sys.stderr)
        return EXIT_USAGE


if __name__ == '__main__':
    sys.exit(main())
