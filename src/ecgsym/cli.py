"""Command-line interface.

Subcommands mirror the pipeline stages (ingest, filter, encode, features,
evaluate) plus full orchestration (run, pairs) and a synthetic-cluster
generator (synth). Exit codes: 0 success, 1 usage or configuration error,
2 data error (parsing, labeling, validity).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import experiment as exp
from .distribution import LabeledFeatureSet, evaluate_distribution
from .encoding import EncoderSpec, SymbolSequence, check_zero_tol, encode
from .features import extract_features, lz_complexity, shannon_entropy
from .filtering import (
    DEFAULT_SAMPLE_RATE,
    Signal,
    compensation_plan,
    filter_compensated,
    frequency_response,
    make_bandpass,
    make_highpass,
    make_lowpass,
)
from .records import check_column, numbered_rows, read_label_sidecar, read_rows, read_text_signal, write_text


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _get_value(self, action, arg_string):
        # a flag value that is cast or chosen is no path: read it as UTF-8, as errors quote it
        if action.option_strings and (action.type or action.choices):
            arg_string = _utf8(arg_string)
        return super()._get_value(action, arg_string)


_FILTER_KINDS = {"bandpass": make_bandpass, "lowpass": make_lowpass, "highpass": make_highpass}


def _add_text_signal_flags(p, column=0, sample_rate=DEFAULT_SAMPLE_RATE):
    p.add_argument("--column", type=int, default=column, help="text column holding the samples")
    p.add_argument("--delimiter", type=_utf8, default=None, help="column delimiter (default: whitespace)")
    p.add_argument("--skip-header", action="store_true", help="skip the first row")
    p.add_argument("--sample-rate", type=float, default=sample_rate)


def _read_signal(args) -> Signal:
    return read_text_signal(args.input, args.column, args.delimiter, args.skip_header, args.sample_rate)


def _write_output(out, text: str) -> None:
    """Write ``text`` to the file ``out``, or to stdout when it is not given."""
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _utf8(text: str) -> str:
    """A flag's text read as UTF-8, the encoding of every file: argv bytes
    the locale could not decode arrive as surrogates."""
    return text.encode("utf-8", "surrogateescape").decode("utf-8", "surrogateescape")


def _error_text(exc: Exception) -> str:
    """``exc`` as text with the paths in it as typed (see _utf8); an
    OSError's path not through repr, which would escape what was typed."""
    if isinstance(exc, OSError) and exc.strerror is not None and exc.filename is not None:
        return _utf8(f"{exc.strerror}: {exc.filename}")
    return _utf8(str(exc))


def _add_record_flags(p):
    """The record and signal flags of ingest, run and pairs."""
    p.add_argument("records", nargs="*", default=[])
    p.add_argument("--sidecar", default=None, help="label file: record_id,start,end,label")
    p.add_argument("--format", choices=("text", "212"), default=None)
    p.add_argument("--channel", type=int, default=None)
    p.add_argument("--signal-count", type=int, default=None)
    # None defaults: absent flags take the config file's or ExperimentConfig's values
    _add_text_signal_flags(p, column=None, sample_rate=None)
    p.add_argument("--segment-length", type=int, default=None)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")


def _add_run_flags(p):
    """The flags of run and pairs; their dests are the ExperimentConfig
    fields and, all but features, the config-file keys."""
    _add_record_flags(p)
    p.add_argument("--config", default=None, help="flat key = value configuration file")
    p.add_argument("--features", nargs="+", default=None, help="precomputed feature CSVs")
    p.add_argument("--no-filter", dest="filter", action="store_false")
    p.add_argument("--grid", default=None, help="encoder grid file")
    p.add_argument("--zero-tol", type=float, default=None)
    p.add_argument("--mode", choices=("forall", "exists"), default=None)


def cmd_ingest(args) -> int:
    segments, skipped, dropped = exp._ingest(_config_from_args(args))
    counts = Counter(segments.labels)
    for label in sorted(counts):
        print(f"{label}: {counts[label]}")
    print(
        f"total: {len(segments)} segments, {skipped} unlabeled windows skipped, "
        f"{dropped} trailing partial windows dropped"
    )
    if args.out:
        lines = ["record_id,start,label"]
        rows = zip(segments.record_ids, segments.starts, segments.labels)
        lines += [f"{record_id},{start},{label}" for record_id, start, label in rows]
        path = write_text(Path(args.out) / "segments.csv", "\n".join(lines) + "\n")
        print(f"manifest written to {path}")
    return 0


def _add_filter_flags(p):
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--kind", choices=sorted(_FILTER_KINDS), default="bandpass")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--response", default=None, help="write magnitude/phase response CSV")
    _add_text_signal_flags(p)


def cmd_filter(args) -> int:
    coeffs = _FILTER_KINDS[args.kind]()
    if args.input is None and not args.response:
        raise UsageError("filter needs an input signal or --response")
    try:  # only filtering needs an alignment shift: a rate with none raises before the input is read
        check_column(args.column)
        plan = None if args.input is None else compensation_plan(coeffs, args.sample_rate)[0]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.response:
        freqs = np.linspace(1e-3, args.sample_rate / 2 - 1e-3, 512)
        h = frequency_response(coeffs, 2.0 * math.pi * freqs / args.sample_rate)
        lines = ["freq_hz,magnitude,phase_rad"]
        lines += [
            f"{float(f)!r},{float(abs(v))!r},{float(np.angle(v))!r}" for f, v in zip(freqs, h)
        ]
        write_text(args.response, "\n".join(lines) + "\n")
        print(f"response written to {args.response}")
    if args.input is not None:
        out = filter_compensated(coeffs, _read_signal(args), plan)
        _write_output(args.out, "\n".join(repr(float(v)) for v in out.samples) + "\n")
    return 0


def _add_encode_flags(p):
    p.add_argument("input")
    p.add_argument("--method", choices=("slope", "threshold"), required=True)
    p.add_argument("--alphabet", type=int, choices=(2, 3), required=True)
    p.add_argument("--deviation", type=_utf8, default=None, help="threshold offset, e.g. 1/12 or -0.05")
    p.add_argument("--zero-tol", type=float, default=0.0)
    p.add_argument("--out", default=None)
    _add_text_signal_flags(p)


def cmd_encode(args) -> int:
    try:
        deviation = None if args.deviation is None else exp.parse_fraction(args.deviation)
        spec = EncoderSpec(args.method, args.alphabet, deviation)
        check_zero_tol(args.zero_tol)
        check_column(args.column)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    seq = encode(_read_signal(args), spec, args.zero_tol)
    _write_output(args.out, "\n".join(str(int(v)) for v in seq.symbols) + "\n")
    return 0


def _add_features_flags(p):
    p.add_argument("input", help="file with one symbol per line")
    p.add_argument("--alphabet", type=int, choices=(2, 3), required=True)
    p.add_argument("--allow-short", action="store_true", help="skip the minimum-length check")
    p.add_argument("--out", default=None)


def cmd_features(args) -> int:
    alphabet = (-1, 0, 1) if args.alphabet == 3 else (0, 1)
    values = []
    for row_no, line in numbered_rows(*read_rows(args.input)):
        try:
            values.append(int(line))
        except ValueError:
            raise ValueError(f"{args.input}: row {row_no} is not a symbol: {line!r}") from None
        if values[-1] not in alphabet:
            raise ValueError(f"{args.input}: row {row_no} is outside the alphabet {alphabet}: {line!r}")
    if not values:
        raise ValueError(f"{args.input}: no symbols")
    seq = SymbolSequence(np.array(values), args.alphabet)
    fv = extract_features(seq, enforce_min_length=not args.allow_short)
    _write_output(
        args.out,
        f"length = {len(seq)}\n"
        f"entropy_bits = {shannon_entropy(seq)!r}\n"
        f"entropy_norm = {fv.h_norm!r}\n"
        f"phrase_count = {lz_complexity(seq)}\n"
        f"complexity_norm = {fv.c_norm!r}\n",
    )
    return 0


def _add_evaluate_flags(p):
    p.add_argument("input")
    p.add_argument("--skip-header", action="store_true")
    p.add_argument("--mode", choices=("forall", "exists"), default="forall")
    p.add_argument("--out", default=None)


def cmd_evaluate(args) -> int:
    dataset = LabeledFeatureSet.from_codes(*exp.load_features_csv(args.input, args.skip_header))
    report = evaluate_distribution(dataset, args.mode)
    text = report.to_text()
    if args.out:
        write_text(args.out, text)
    print(text, end="")
    return 0


def _bool_from_text(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _config_from_args(args) -> exp.ExperimentConfig:
    """ExperimentConfig of the ingest, run or pairs flags over the --config file.

    The flag specs are those of the subparser that parsed ``args`` whose
    dests are ExperimentConfig fields (all of them for run and pairs); the
    file's keys are the same names except ``features``, and each value is
    cast like its flag's argument. A flag that differs from its default
    overrides the file. Any error in the flags or the file is a usage error.
    """
    fields = {field.name for field in dataclasses.fields(exp.ExperimentConfig)}
    flags = {a.dest: a for a in args.parser._actions if a.dest in fields}
    try:
        values = {} if "filter" in flags else {"filter": False}  # ingest only reads and cuts
        if getattr(args, "config", None):  # ingest has no --config
            for key, text in exp.load_config_file(args.config, set(flags) - {"features"}).items():
                if flags[key].nargs == 0:
                    values[key] = _bool_from_text(text)
                elif flags[key].nargs == "*":
                    values[key] = text.replace(",", " ").split()
                else:
                    values[key] = (flags[key].type or str)(text)
        values.update(
            (dest, value)
            for dest, value in vars(args).items()
            if dest in flags and value != flags[dest].default
        )
        if "grid" in values and not values.get("features"):  # with features it is rejected unread
            values["grid"] = exp.parse_grid_file(values["grid"])
        return exp.ExperimentConfig(
            **{key: tuple(v) if isinstance(v, list) else v for key, v in values.items()}
        )
    except (ValueError, OSError) as exc:
        raise UsageError(_error_text(exc)) from None


def cmd_run(args) -> int:
    config = _config_from_args(args)
    result = exp.run_experiment(config)
    ranked = [result.entries[idx] for idx in result.ranking]
    rows = ((rank, e.label, e.report.overlap_per_element) for rank, e in enumerate(ranked, start=1))
    print(exp.overlap_table_text("rank", 5, rows), end="")
    if config.out:
        print(f"reports and scatter data written to {config.out}")
    return 0


def _check_pair_names(pairs, names) -> None:
    unknown = sorted({name for pair in pairs for name in pair} - set(names))
    if unknown:
        raise UsageError(f"unknown class name(s) in --pairs: {', '.join(unknown)}")


def _add_pairs_flags(p):
    _add_run_flags(p)
    p.add_argument("--pairs", type=_utf8, default=None, help="comma-separated A:B pairs (default: all)")


def cmd_pairs(args) -> int:
    config = _config_from_args(args)
    pairs = None
    if args.pairs:
        pairs = []
        for item in args.pairs.split(","):
            first, sep, second = item.partition(":")
            if not sep:
                raise UsageError(f"pair {item!r} must be written first:second")
            first, second = first.strip(), second.strip()
            if first == second:
                raise UsageError(f"pair {item!r} names one class twice")
            pairs.append((first, second))
    if pairs is not None and config.records:
        # the sidecar's labels are exactly the classes, since ingestion
        # rejects a sidecar class that ends up empty
        _check_pair_names(pairs, {span.label for span in read_label_sidecar(config.sidecar)})
    result = exp.run_experiment(dataclasses.replace(config, out=None))
    names = list(result.class_counts)
    if pairs is None:
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    elif config.features:  # record input was checked against the sidecar above
        _check_pair_names(pairs, names)
    text = exp.pair_table_text(exp.pairwise_table(result, pairs))
    if config.out:
        write_text(Path(config.out) / "pairs.txt", text)
    print(text, end="")
    return 0


def _ring_centers(m: int) -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(m) / m
    return np.stack([0.5 + 0.25 * np.cos(angles), 0.6 + 0.25 * np.sin(angles)], axis=1)


def _add_synth_flags(p):
    layout = p.add_mutually_exclusive_group()
    # None, not 5: argparse's exclusion check skips a value that is its default
    layout.add_argument("--classes", type=int, default=None, help="classes on a ring (default: 5)")
    layout.add_argument("--centers", type=_utf8, default=None, help="'x,y;x,y;...' (default: ring layout)")
    p.add_argument("--per-class", type=int, default=200)
    p.add_argument("--spread", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--names", type=_utf8, default=None, help="comma-separated class names")
    p.add_argument("--mode", choices=("forall", "exists"), default="forall")
    p.add_argument("--out", default=None)


def cmd_synth(args) -> int:
    if args.centers:
        try:
            centers = [[float(v) for v in part.split(",")] for part in args.centers.split(";")]
        except ValueError:
            raise UsageError(f"cannot parse centers {args.centers!r}") from None
    else:
        centers = _ring_centers(5 if args.classes is None else args.classes)
    names = args.names.split(",") if args.names else None
    try:
        for name in names or ():  # the features.csv rule, with or without --out
            exp.check_label(name)
        dataset = exp.make_clusters(centers, args.per_class, args.spread, args.seed, names)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    text = evaluate_distribution(dataset, args.mode).to_text()
    if args.out:
        out = Path(args.out)
        codes = np.repeat(np.arange(len(dataset.names)), dataset.sizes)
        features = exp.features_csv_text(dataset.names, codes, dataset.points)
        write_text(out / "features.csv", features)
        write_text(out / "report.txt", text)
        text += f"features and report written to {out}\n"
    print(text, end="")
    return 0


_COMMANDS = {  # name: (help, function adding its flags, handler)
    "ingest": ("read records, attach labels, report segment counts", _add_record_flags, cmd_ingest),
    "filter": ("compensated filtering of a text signal", _add_filter_flags, cmd_filter),
    "encode": ("encode a text signal into symbols", _add_encode_flags, cmd_encode),
    "features": ("entropy/complexity of a symbol file", _add_features_flags, cmd_features),
    "evaluate": ("overlap report of a label,entropy,complexity CSV", _add_evaluate_flags, cmd_evaluate),
    "run": ("full pipeline: ingest, filter, encode, featurize, evaluate, rank", _add_run_flags, cmd_run),
    "pairs": ("best encoder per class pair", _add_pairs_flags, cmd_pairs),
    "synth": ("synthetic Gaussian clusters in the feature plane", _add_synth_flags, cmd_synth),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """Every subcommand, with the flags of ``command`` only (all when None);
    a subparser's ``parser`` default is itself, read by _config_from_args."""
    parser = _Parser(prog="ecgsym", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(parser=p)
        if command in (None, name):
            add_flags(p)
    return parser


def main(argv=None) -> int:
    for stream in (sys.stdout, sys.stderr):  # UTF-8 like every file, each its own error handler
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
    argv = sys.argv[1:] if argv is None else argv
    # the top level has no option but -h: the first subcommand name runs
    command = next((arg for arg in argv if arg in _COMMANDS), "")
    try:
        args = build_parser(command).parse_args(argv)
        return _COMMANDS[args.command][2](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"data error: {_error_text(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
