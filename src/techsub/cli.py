"""Command-line front end.

Commands: fit-killer (log-log substitution regression), fisher-pry
(share substitution line), waves (technological-cycle analytics) and
simulate (generate logistic killer/victim series for self-validation).

Exit codes: 0 success, 2 usage, 3 parse/IO failure, 4 validation
failure, 5 estimation failure.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import stat
import sys

from .errors import EstimationError, ParseError, TechsubError, ValidationError
from .estimation import (
    AbsoluteTolerance,
    TTestTolerance,
    fisher_pry_fit,
    killer_fit,
)
from .growth import LogisticParams, logistic_value
from .ingest import (
    TimeSeries, file_stem, json_number, json_object, json_year_range, parse_manifest,
    parse_series, read_input, read_series, serialize_series,
)
from .reporting import (
    VERSION,
    build_report,
    fit_payload,
    regime_narrative,
    render_report,
)
from .svgplot import render_scatter
from .waves import extract_wave_events, waves_payload


def _parse_period(text: str) -> tuple[int, int]:
    try:
        first, last = text.split(":")
        bounds = (int(first), int(last))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected FIRST:LAST, got {text!r}")
    if bounds[0] > bounds[1]:
        raise argparse.ArgumentTypeError(f"period first > last in {text!r}")
    return bounds


def _finite_float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad {what} value {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{what} must be finite, got {value}")
    return value


def _parse_threshold(text: str) -> float:
    return _finite_float(text, "threshold")


def _parse_tolerance(text: str):
    if text == "ttest":
        return TTestTolerance()
    if text.startswith("abs:"):
        value = _finite_float(text[4:], "tolerance")
        if value < 0:
            raise argparse.ArgumentTypeError(f"tolerance must be >= 0, got {value}")
        return AbsoluteTolerance(value)
    raise argparse.ArgumentTypeError(
        f"expected 'ttest' or 'abs:X', got {text!r}"
    )


def _file_key(path: str) -> tuple:
    """What a write to path replaces: the device and inode of the file
    there, or of its directory with its name where there is none yet (a
    symbolic link counts as where it points). Keys are equal where
    os.path.realpath results are, and for hard links too, at a few stat
    calls rather than one per path component. A directory is the
    IsADirectoryError that opening it for writing would raise."""
    target = path
    try:
        st = os.lstat(path)
        if stat.S_ISLNK(st.st_mode):
            target = os.path.realpath(path)
            st = os.stat(target)
    except FileNotFoundError:  # nothing there yet, or a link to nothing
        head, name = os.path.split(target)
        st = os.stat(head or ".")
        return st.st_dev, st.st_ino, name
    if stat.S_ISDIR(st.st_mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return st.st_dev, st.st_ino


def _write(outputs: list[tuple], inputs: list[str]) -> int:
    """Write each (option, path, text) of outputs, to stdout where path is
    None or empty, skipping an item whose text is None; then return 0.
    Nothing is written unless every target passes: two outputs that name
    one file, or an output that names a file the command read (the write
    would replace it), are a ValidationError, and an output that is a
    directory, or in one that is not there, _file_key's OSError."""
    outputs = [item for item in outputs if item[2] is not None]
    keys = {}
    for option, path, _ in outputs:
        if not path:
            continue
        key = _file_key(path)
        if key in keys:
            raise ValidationError(f"{keys[key]} and {option} {path} name the same file")
        keys[key] = f"{option} {path}"
    for path in inputs if keys else ():  # every one was read, so is there
        label = keys.get(_file_key(path))
        if label:
            raise ValidationError(f"{label} and input {path} name the same file")
    for _, path, text in outputs:
        if not path:
            sys.stdout.write(text)
            continue
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    return 0


def _plot(path: str | None, fit, **labels) -> str | None:
    """The SVG of fit's points and fitted line for --plot path, None without
    one; a plot that cannot be drawn is an EstimationError."""
    if not path:
        return None
    try:
        return render_scatter(fit.xs, fit.ys, line=(fit.alpha, fit.beta), **labels)
    except ValueError as exc:
        raise EstimationError(f"cannot plot: {exc}") from None


def _cmd_fit_killer(args) -> int:
    killer, killer_data = read_input(args.killer_csv, parse_series, file_stem(args.killer_csv))
    victim, victim_data = read_input(args.victim_csv, parse_series, file_stem(args.victim_csv))
    fit = killer_fit(
        killer.restrict(args.period), victim.restrict(args.period), policy=args.regime_tolerance
    )
    warnings = []
    if fit.n_dropped:
        warnings.append(
            f"{fit.n_dropped} aligned observation(s) dropped for non-positive levels"
        )
    report = build_report(
        command="fit-killer",
        dataset=f"{killer.name} (killer) vs {victim.name} (victim)",
        payload=fit_payload("log(killer) = alpha + B*log(victim)", fit),
        inputs=[(args.killer_csv, killer_data), (args.victim_csv, victim_data)],
        narrative=regime_narrative(fit),
        warnings=warnings,
    )
    svg = _plot(
        args.plot,
        fit.regression,
        title=f"{killer.name} vs {victim.name} (log-log)",
        xlabel=f"ln {victim.name} level",
        ylabel=f"ln {killer.name} level",
        annotation=f"B = {fit.regression.beta:.3f}",
    )
    return _write(
        [("--output", args.output, render_report(report)), ("--plot", args.plot, svg)],
        [args.killer_csv, args.victim_csv],
    )


def _cmd_fisher_pry(args) -> int:
    shares, data = read_input(args.shares_csv, parse_series, file_stem(args.shares_csv))
    shares = shares.restrict(args.period)
    fit = fisher_pry_fit(shares)
    report = build_report(
        command="fisher-pry",
        dataset=shares.name,
        payload=fit_payload("ln(f/(1-f)) = intercept + slope*year", fit),
        inputs=[(args.shares_csv, data)],
        narrative=(
            f"Fitted share odds {'double' if fit.slope > 0 else 'halve'} every "
            f"{math.log(2) / abs(fit.slope):.2f} years; half-substitution at year "
            f"{fit.t_half:.2f}."
        ),
    )
    svg = _plot(
        args.plot,
        fit.regression,
        title=f"{shares.name}: share substitution",
        xlabel="year",
        ylabel="ln(f / (1 - f))",
        annotation=f"slope = {fit.slope:.4f} per year",
        vline=(fit.t_half, f"t_half = {fit.t_half:.2f}"),
    )
    return _write(
        [("--output", args.output, render_report(report)), ("--plot", args.plot, svg)],
        [args.shares_csv],
    )


def _cmd_waves(args) -> int:
    manifest, data = read_input(args.manifest, parse_manifest, args.manifest)
    if not manifest.series:
        raise ValidationError(
            f"{args.manifest}: manifest lists no series (nothing to analyze)"
        )

    warnings = []
    waves = []  # (series, events), manifest order
    for ref in manifest.series:
        prefix = ""  # read_series's errors name the file's joined path already
        try:
            series = read_series(manifest.path(ref), ref.name, ref.unit)
            prefix = f"{ref.file}: "
            series = series.restrict(manifest.period)
            waves.append((series, extract_wave_events(series, args.threshold)))
        except (ParseError, ValidationError) as exc:
            warnings.append(prefix + str(exc))
    if not waves:
        raise ValidationError(
            f"{args.manifest}: no series could be analyzed: {'; '.join(warnings)}"
        )

    payload, pair_warnings = waves_payload(waves)
    summary = payload["summary"]
    report = build_report(
        command="waves",
        dataset=manifest.dataset,
        payload=payload,
        inputs=[(args.manifest, data)],
        narrative=(
            f"{summary['n_waves']} completed wave(s) summarized, "
            f"{summary['n_excluded']} still in progress (flagged '*')."
        ),
        warnings=warnings + pair_warnings,
    )
    return _write(
        [("--output", args.output, render_report(report))],
        [args.manifest, *map(manifest.path, manifest.series)],
    )


def _sim_params(text: str) -> tuple:
    """Every check of a parameter file's text: (years as a range, noise_sigma,
    seed, a (name, unit, LogisticParams) per series, victim first)."""
    doc = json_object(text, "parameter file")
    for key in ("victim", "killer", "years"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    first, last = json_year_range(doc, "years")
    sigma = json_number(doc.get("noise_sigma", 0.0), "noise_sigma")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValidationError(f"noise_sigma must be finite and >= 0, got {sigma}")
    seed = json_number(doc.get("seed", 0), "seed", integer=True)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    specs = []
    for role in ("victim", "killer"):
        spec = doc[role]
        if not isinstance(spec, dict):
            raise ParseError(f"{role} parameters must be an object, got {spec!r}")
        try:
            K, a, b = (json_number(spec[k], f"{role} {k}") for k in "Kab")
        except KeyError as exc:
            raise ParseError(f"{role} parameters missing key {exc}")
        name, unit = spec.get("name", role), spec.get("unit", "")
        for key, text in (("name", name), ("unit", unit)):
            if not isinstance(text, str):
                raise ParseError(f"{role} {key} must be a string, got {text!r}")
        specs.append((name, unit, LogisticParams(K=K, a=a, b=b)))
    return range(first, last + 1), sigma, seed, specs


def _sim_csv(name: str, unit: str, params, years, sigma: float, seed: int, rng) -> str:
    """The CSV text of one simulated series, behind a comment that records
    its parameters."""
    values = [logistic_value(params, t) for t in years]
    if sigma > 0.0:
        try:
            factors = [math.exp(sigma * rng.gauss(0.0, 1.0)) for _ in values]
            if math.inf in factors or 0.0 in factors:  # exp(inf) and an underflow do not raise
                raise OverflowError
        except OverflowError:
            raise ValidationError(f"noise_sigma {sigma} draws a noise factor past the float range")
        values = [v * f for v, f in zip(values, factors)]
    if 0.0 in values:  # a logistic level is positive: the curve or its noise underflowed
        year = years[values.index(0.0)]
        raise ValidationError(f"series {name!r}: simulated level underflows to 0.0 at year {year}")
    series = TimeSeries(name=name, unit=unit, points=tuple(zip(years, values)))
    return (
        f"# simulated logistic series {name!r}: K={params.K!r}, a={params.a!r}, "
        f"b={params.b!r}, noise_sigma={sigma!r}, seed={seed}\n" + serialize_series(series)
    )


def _cmd_simulate(args) -> int:
    years, sigma, seed, specs = read_input(args.params, _sim_params)[0]
    rng = None
    if sigma > 0.0:
        import random

        rng = random.Random(seed)

    victim, killer = (_sim_csv(*spec, years, sigma, seed, rng) for spec in specs)
    rows = f"({len(years)} rows)"
    return _write(
        [("--killer-out", args.killer_out, killer), ("--victim-out", args.victim_out, victim),
         ("stdout", None, f"wrote {args.victim_out} {rows} and {args.killer_out} {rows}\n")],
        [args.params],
    )


COMMANDS = {
    "fit-killer": "log-log OLS of killer level on victim level with regime label",
    "fisher-pry": "fit the market-share substitution line ln(f/(1-f)) vs year",
    "waves": "technological-cycle events, disruption periods and summaries",
    "simulate": "generate exact (optionally noisy) killer/victim logistic series",
}


def _add_arguments(p: argparse.ArgumentParser, command: str) -> None:
    if command == "simulate":
        p.add_argument("params", help="JSON parameter file (see README for the schema)")
        p.add_argument("--killer-out", required=True, metavar="PATH")
        p.add_argument("--victim-out", required=True, metavar="PATH")
        p.set_defaults(func=_cmd_simulate)
        return
    p.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")
    if command == "waves":
        p.add_argument("manifest", help="JSON manifest listing series in succession order")
        p.add_argument(
            "--threshold",
            type=_parse_threshold,
            default=0.0,
            metavar="V",
            help="activity threshold: a year counts as alive when value > V (default 0)",
        )
        p.set_defaults(func=_cmd_waves)
        return
    if command == "fit-killer":
        p.add_argument("killer_csv", help="CSV of the killer technology series")
        p.add_argument("victim_csv", help="CSV of the victim technology series")
    else:
        p.add_argument("shares_csv", help="CSV of market shares in (0, 1)")
    p.add_argument(
        "--period",
        type=_parse_period,
        metavar="FIRST:LAST",
        help="restrict each series to these years; exit 4 when one has none of them",
    )
    p.add_argument("--plot", metavar="PATH", help=(
        "write a log-log SVG scatter here" if command == "fit-killer"
        else "write the substitution SVG here"
    ))
    if command == "fisher-pry":
        p.set_defaults(func=_cmd_fisher_pry)
        return
    p.add_argument(
        "--regime-tolerance",
        type=_parse_tolerance,
        default=TTestTolerance(),
        metavar="{ttest|abs:X}",
        help="proportional growth: t test of B = 1 at 5%% (default) or fixed |B-1| <= X",
    )
    p.set_defaults(func=_cmd_fit_killer)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one command in COMMANDS; for anything else the full
    parser (``--help``, ``--version``, and the errors for no or an unknown
    command), whose subparsers are built from the same pieces. Each is
    built once per process and then shared: parse_args keeps its state in
    the Namespace it returns, and the defaults are immutable."""
    return _parser(command if command in COMMANDS else None)


@functools.cache
def _parser(command: str | None) -> argparse.ArgumentParser:
    if command:
        parser = argparse.ArgumentParser(prog=f"techsub {command}")
        _add_arguments(parser, command)
        return parser
    parser = argparse.ArgumentParser(
        prog="techsub",
        description=(
            "Quantify competitive substitution between a new (killer) "
            "technology and an established (victim) technology."
        ),
    )
    parser.add_argument("--version", action="version", version=f"techsub {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_line), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv[1:] if command else argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"techsub: i/o error: {exc}", file=sys.stderr)
        return 3
    except TechsubError as exc:
        print(f"techsub: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code

if __name__ == "__main__":
    sys.exit(main())
