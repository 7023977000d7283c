"""Command-line front end: one binary, subcommand per capability.

Subcommands: sieve, expsum, arcs, typesums, singular, count, gowers,
nilseq, mobius-corr, obstruction, acceptance.

Every report is a JSON envelope {command, version, seed, timestamp, N,
params, results} (schema shipped in hlmlab/schemas/report.schema.json);
identical (command, config, seed) runs re-serialize byte-identically
apart from the timestamp. --format csv switches tabular payloads
(exponential sums, orbits, sweeps) to CSV with a header row. This
module is the only writer of both formats; a report holding a NaN or an
infinity is a validation error, raised before any --out file is opened.

Config file: key=value lines loaded before flag parsing; flags win.
HLM_DATA_DIR, when set, caches sieve tables as table_<N>.hlm2 (is_prime
and mu, 2 B/n; Lambda is always derived): a run reads the smallest cached
table whose limit is at least N, as a prefix, and otherwise sieves and
caches its own (arith.table). Old table_<N>.bin caches are never read.

Exit codes: 0 success, 1 usage error or unreadable/unwritable file,
2 validation error (degenerate system, bad parameter, work past a cap,
a non-finite number in the report, an allocation that failed),
3 acceptance-suite failure.
"""

import argparse
import contextlib
import csv
import datetime
from fractions import Fraction
import itertools
import json
import math
import sys
import warnings

import numpy as np

from . import __version__, acceptance, arith, counting, fourier, gowers, linsys, nilseq, obstruction
from ._phase import frac01
from ._rng import Stream

_JSON_BATCH = 4096  # encoder chunks joined into one string before the write


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {self.prog}: {message}", file=sys.stderr)
        raise SystemExit(1)


def _envelope(command: str, args, params: dict, results) -> dict:
    return {
        "command": command,
        "version": __version__,
        "seed": args.seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "N": params.get("N"),
        "params": params,
        "results": results,
    }


@contextlib.contextmanager
def _csv_out(args):
    """The CSV destination: --out opened with newline="", else stdout."""
    if args.out is None:
        yield sys.stdout
    else:
        with open(args.out, "w", newline="") as fh:
            yield fh


def _check_finite(values) -> None:
    if not np.isfinite(values).all():
        raise ValueError("non-finite value (NaN or inf) in the CSV report")


def _finite_phases(flag: str, thetas, n: int) -> None:
    """Refuse a phase theta whose products theta * m for m <= n are not all
    finite doubles, before any numpy work reduces them mod 1."""
    for theta in thetas:
        if not math.isfinite(theta) or abs(Fraction(theta)) * n > sys.float_info.max:
            raise ValueError(f"{flag} and {flag} * n for n <= {n} must be finite, "
                             f"got {theta!r}")


def _emit(report: dict, args, csv_rows=None, csv_header=None) -> None:
    if args.format == "csv" and csv_rows is not None:
        _check_finite([v for row in csv_rows for v in row if isinstance(v, float)])
        with _csv_out(args) as out:
            wr = csv.writer(out)
            wr.writerow(csv_header)
            wr.writerows(csv_rows)
        return
    # json.dumps's text without its list of every chunk (most a few bytes,
    # each a str object), written only once the whole report has encoded
    chunks = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False,
                              default=_jsonable).iterencode(report)
    batches = list(iter(lambda: "".join(itertools.islice(chunks, _JSON_BATCH)), ""))
    with contextlib.nullcontext(sys.stdout) if args.out is None else open(args.out, "w") as fh:
        fh.writelines(batches)
        fh.write("\n")


def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    raise TypeError(f"not JSON-serializable: {type(v)}")


def _weights(tab: arith.ArithTable, name: str, N: int) -> np.ndarray:
    """The named column on [1, N] in its own dtype (mu stays int8); only
    that column is made (Lambda from is_prime)."""
    return getattr(tab, {"lambda": "vonmangoldt", "mobius": "mobius"}[name])[1 : N + 1]


def cmd_sieve(args) -> int:
    tab = arith.table(args.n)
    if args.dump:
        arith.dump_table(tab, args.dump)
    results = {
        "pi": int(tab.is_prime.sum()),
        "mertens": int(tab.mobius[1:].sum(dtype=np.int64)),
        "mean_vonmangoldt": arith.mean_vonmangoldt(tab),
        "dumped_to": args.dump,
    }
    _emit(_envelope("sieve", args, {"N": args.n}, results), args)
    return 0


def cmd_expsum(args) -> int:
    _finite_phases("--theta", args.theta, args.n)
    tab = arith.table(args.n)
    w = _weights(tab, args.weights, args.n)
    rows = []
    for theta in args.theta:
        s = fourier.exp_sum(w, theta)
        rows.append({"theta": theta, "re": s.real, "im": s.imag, "abs": abs(s)})
    sup_theta, sup_val = fourier.sup_exp_sum(w, args.oversample)
    results = {"values": rows, "sup": {"theta": sup_theta, "value": sup_val}}
    params = {"N": args.n, "weights": args.weights, "oversample": args.oversample}
    _emit(
        _envelope("expsum", args, params, results),
        args,
        csv_rows=[[r["theta"], r["re"], r["im"], r["abs"]] for r in rows],
        csv_header=["theta", "re", "im", "abs"],
    )
    return 0


def cmd_arcs(args) -> int:
    if args.thetas:
        thetas = [float(t) for t in args.thetas.split(",")]
        _finite_phases("--thetas", thetas, args.n)
    else:
        if args.grid < 1:
            raise ValueError(f"--grid must be >= 1, got {args.grid}")
        thetas = ((np.arange(args.grid) + 0.5) / args.grid).tolist()
    sweep = fourier.arc_sweep(thetas, args.n, args.exponent)
    params = {"N": args.n, "A": args.exponent}
    _emit(
        _envelope("arcs", args, params, sweep),
        args,
        csv_rows=[[d["theta"], d["verdict"], d["a"], d["q"]] for d in sweep],
        csv_header=["theta", "verdict", "a", "q"],
    )
    return 0


def cmd_typesums(args) -> int:
    _finite_phases("--phase", [] if args.phase is None else [args.phase], args.n)
    if args.phase is not None:
        if args.n > arith.DEFAULT_LIMIT_CAP:
            raise arith.CapacityError(f"--n={args.n} exceeds cap {arith.DEFAULT_LIMIT_CAP}")
        n = np.arange(1, args.n + 1)
        f = np.exp(2j * np.pi * frac01(args.phase * n))
        kind = f"e({args.phase}*n)"
    else:
        f = _weights(arith.table(args.n), args.weights, args.n)
        kind = args.weights
    results = {"f": kind, "type1": fourier.type1_max(f, args.d)}
    if args.w:
        results["type2"] = fourier.type2_max(f, args.d, args.w, seed=args.seed)
    params = {"N": args.n, "D": args.d, "W": args.w}
    _emit(_envelope("typesums", args, params, results), args)
    return 0


def cmd_singular(args) -> int:
    system = linsys.parse_system(args.system)
    series = linsys.singular_series(system, args.p_max)
    factors = sorted(series.local_factors.items())
    results = {
        "factors": [[p, f.numerator, f.denominator] for p, f in factors],
        "product": series.truncated_product,
        "P0": series.truncation_prime,
        "tail": series.tail_estimate,
    }
    params = {"system": args.system, "P0": args.p_max, "N": None}
    _emit(
        _envelope("singular", args, params, results),
        args,
        csv_rows=results["factors"],
        csv_header=["p", "num", "den"],
    )
    return 0


def cmd_count(args) -> int:
    ns = [int(v) for v in args.sweep.split(",")] if args.sweep else [args.n]
    if args.n is None and not args.sweep:
        raise ValueError("need --n or --sweep")
    system = linsys.parse_system(args.system) if args.system else None
    if system is None:
        counting.check_ap_k(args.k, args.weighted)
    tab = arith.table(max(ns))
    reports = []
    for n in ns:
        if system:
            rep = counting.generic_count(
                tab, system, n, mode=args.mode, samples=args.samples, seed=args.seed
            )
        elif args.weighted:
            rep = counting.weighted_ap_report(tab, n, args.k)
        else:
            rep = counting.ap_count_report(tab, n, args.k)
        reports.append(rep)
    results = reports[0].to_dict() if len(reports) == 1 else [r.to_dict() for r in reports]
    params = {"N": ns[-1], "k": args.k, "system": args.system, "mode": args.mode,
              "sweep": args.sweep}
    _emit(
        _envelope("count", args, params, results),
        args,
        csv_rows=[
            [r.N, r.descriptor, r.observed, r.predicted,
             r.ratio if r.predicted else "", r.method]
            for r in reports
        ],
        csv_header=["N", "descriptor", "observed", "predicted", "ratio", "method"],
    )
    return 0


def cmd_gowers(args) -> int:
    if args.input:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data: refused below
            f = np.loadtxt(args.input, delimiter=",", dtype=np.float64, ndmin=2)
        if f.size == 0:
            raise ValueError("input CSV holds no values")
        if f.shape[1] != 1:
            raise ValueError("input CSV must be a single column")
        f = f[:, 0]
    elif args.weights:
        f = _weights(arith.table(args.m), args.weights, args.m)
    else:
        f = Stream(args.seed).uniform(-1.0, 1.0, args.m)
    if args.method == "bruteforce":
        value = gowers.uk_norm_bruteforce(f, args.k)
    else:
        value = gowers.uk_norm(f, args.k, args.method)
    results = {"k": args.k, "M": f.size, "value": value, "method": args.method}
    params = {"N": None, "M": f.size, "k": args.k, "method": args.method}
    _emit(_envelope("gowers", args, params, results), args)
    return 0


def cmd_nilseq(args) -> int:
    g = nilseq.HeisenbergElement(args.alpha_g, args.beta_g, args.gamma_g)
    if args.character.startswith("torus:"):
        m1, m2 = (int(v) for v in args.character[6:].split(","))
        F = nilseq.TestFunction.torus_character(m1, m2)
    elif args.character.startswith("vertical:"):
        F = nilseq.TestFunction.vertical_character(int(args.character[9:]))
    else:
        raise ValueError(f"unknown character {args.character!r}")
    if args.format == "csv":
        # every block is checked before the output is opened, then made again
        for _, rows in nilseq.nilsequence_blocks(F, g, nilseq.ORIGIN, args.n):
            _check_finite(rows)
        with _csv_out(args) as out:
            csv.writer(out).writerow(["n", "x", "y", "z", "re_F", "im_F"])
            for lo, rows in nilseq.nilsequence_blocks(F, g, nilseq.ORIGIN, args.n):
                out.writelines(_numeric_csv(rows, lo + 1))
        return 0
    table = nilseq.nilsequence_table(F, g, nilseq.ORIGIN, args.n)
    results = {
        "g": [g.alpha, g.beta, g.gamma],
        "character": args.character,
        "lipschitz_estimate": F.lipschitz_estimate,
        "mean": {"re": float(table[:, 3].mean()), "im": float(table[:, 4].mean())},
        "head": [[n, *row] for n, row in enumerate(table[:10].tolist(), 1)],
    }
    params = {"N": args.n, "character": args.character}
    _emit(_envelope("nilseq", args, params, results), args)
    return 0


def _numeric_csv(rows: np.ndarray, first: int):
    """Rows (n, *rows[n - first]) for n = first, first + 1, ... as the text
    csv.writer makes of them, 4096 rows at a time. Float reprs never need
    quoting and never hold ", ", so one repr of a chunk's flattened values
    splits into its fields, and a row is n and its fields joined by commas,
    ended by CR LF. The working set is one chunk's floats, fields and text,
    whatever the length of rows."""
    width = rows.shape[1]
    chunk = 1 << 12
    for start in range(0, len(rows), chunk):
        fields = repr(rows[start : start + chunk].ravel().tolist())[1:-1].split(", ")
        yield "".join([f"{n},{','.join(fields[i : i + width])}\r\n"
                       for n, i in enumerate(range(0, len(fields), width), first + start)])


def cmd_mobius_corr(args) -> int:
    tab = arith.table(args.n)
    battery = nilseq.correlation_battery(tab.mobius[1 : args.n + 1], args.n)
    params = {"N": args.n}
    _emit(
        _envelope("mobius-corr", args, params, battery),
        args,
        csv_rows=sorted(battery.items()),
        csv_header=["sequence", "abs_correlation"],
    )
    return 0


def cmd_obstruction(args) -> int:
    obset = obstruction.build(args.kind, args.n, args.alpha)
    report = obstruction.stats_report(obset)
    if args.members_csv:
        with open(args.members_csv, "w", newline="") as fh:
            fh.write("n\n" + "".join(f"{n}\n" for n in obset.members().tolist()))
    if args.bitset:
        np.packbits(obset.membership).tofile(args.bitset)
    params = {"N": args.n, "kind": args.kind, "alpha": args.alpha}
    _emit(_envelope("obstruction", args, params, report), args)
    return 0


def cmd_acceptance(args) -> int:
    results = acceptance.run_all(only=args.only)
    if not results:
        print(f"error: no acceptance items match {args.only!r}", file=sys.stderr)
        return 1
    report = _envelope(
        "acceptance",
        args,
        {"N": None, "only": args.only},
        [
            {"id": r.cid, "title": r.title, "passed": r.passed,
             "measured": r.measured, "elapsed_s": r.elapsed}
            for r in results
        ],
    )
    if args.out:
        _emit(report, args)
    failed = [r.cid for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} acceptance items passed"
          + (f"; FAILED: {', '.join(failed)}" if failed else ""))
    return 3 if failed else 0


def _load_config(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


GLOBAL_DEFAULTS = {
    "config": None,
    "seed": 0,
    "format": "json",
    "out": None,
}


def build_parser() -> _Parser:
    shared = argparse.ArgumentParser(add_help=False)
    sup = argparse.SUPPRESS
    shared.add_argument("--config", default=sup, help="key=value config file; flags override it")
    shared.add_argument("--seed", type=int, default=sup, help="seed for randomized paths")
    shared.add_argument("--format", choices=["json", "csv"], default=sup)
    shared.add_argument("--out", default=sup, help="write the report here instead of stdout")

    p = _Parser(prog="hlmlab", description=__doc__.splitlines()[0], parents=[shared])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[shared], **kw)


    s = add_parser("sieve", help="build arithmetic tables, report summary stats")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--dump", help="write the binary table dump here")
    s.set_defaults(fn=cmd_sieve)

    s = add_parser("expsum", help="exponential sums and their sup over the grid")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--theta", type=float, action="append", default=[])
    s.add_argument("--weights", choices=["lambda", "mobius"], default="lambda")
    s.add_argument("--oversample", type=int, default=4)
    s.set_defaults(fn=cmd_expsum)

    s = add_parser("arcs", help="major/minor classification sweep")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--exponent", type=float, default=2.0, help="arc exponent A")
    s.add_argument("--thetas", help="comma-separated list")
    s.add_argument("--grid", type=int, default=100, help="uniform grid size if no list")
    s.set_defaults(fn=cmd_arcs)

    s = add_parser("typesums", help="Type I / Type II maximal bilinear sums")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--w", type=int)
    s.add_argument("--phase", type=float, help="use f(n) = e(phase*n)")
    s.add_argument("--weights", choices=["lambda", "mobius"], default="mobius")
    s.set_defaults(fn=cmd_typesums)

    s = add_parser("singular", help="local factors and singular series")
    s.add_argument("--system", required=True, help='rows ";", entries ","')
    s.add_argument("--p-max", type=int, default=10**4)
    s.set_defaults(fn=cmd_singular)

    s = add_parser("count", help="prime-solution counts and predictions")
    s.add_argument("--n", type=int)
    s.add_argument("--sweep", help="comma-separated N values (CSV table mode)")
    s.add_argument("--k", type=int, default=3)
    s.add_argument("--weighted", action="store_true")
    s.add_argument("--system", help="count a general system instead of k-APs")
    s.add_argument("--mode", choices=["exact", "montecarlo"], default="exact")
    s.add_argument("--samples", type=int, default=10**4)
    s.set_defaults(fn=cmd_count)

    s = add_parser("gowers", help="U^k norms of a supplied or random function")
    s.add_argument("--m", type=int, default=64, help="modulus for random input")
    s.add_argument("--k", type=int, default=2)
    s.add_argument("--method", choices=["fft", "recursive", "bruteforce"], default="fft")
    s.add_argument("--input", help="single-column CSV of function values")
    s.add_argument("--weights", choices=["lambda", "mobius"],
                   help="use an arithmetic-table sequence on [1, m] as input")
    s.set_defaults(fn=cmd_gowers)

    s = add_parser("nilseq", help="Heisenberg orbit and nilsequence values")
    s.add_argument("--alpha-g", type=float, required=True)
    s.add_argument("--beta-g", type=float, default=0.0)
    s.add_argument("--gamma-g", type=float, default=0.0)
    s.add_argument("--n", type=int, default=1000)
    s.add_argument("--character", default="vertical:1",
                   help="vertical:m or torus:m1,m2")
    s.set_defaults(fn=cmd_nilseq)

    s = add_parser("mobius-corr", help="Mobius correlation battery")
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(fn=cmd_mobius_corr)

    s = add_parser("obstruction", help="quadratic obstruction set statistics")
    s.add_argument("--kind", choices=["A1", "A2"], default="A1")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--alpha", type=float, default=0.1)
    s.add_argument("--members-csv", help="export the member list")
    s.add_argument("--bitset", help="export the membership bitset")
    s.set_defaults(fn=cmd_obstruction)

    s = add_parser("acceptance", help="run the acceptance suite")
    s.add_argument("--only", help="filter by item id (A3) or tag (gowers)")
    s.set_defaults(fn=cmd_acceptance)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    idx = next((i for i, a in enumerate(argv)
                if a == "--config" or a.startswith("--config=")), None)
    if idx is not None:
        _, eq, path = argv[idx].partition("=")
        width = 1 if eq else 2  # "--config=FILE" or "--config FILE"
        if not eq:
            if idx + 1 == len(argv):
                print("error: argument --config: expected one argument", file=sys.stderr)
                return 1
            path = argv[idx + 1]
        try:
            cfg = _load_config(path)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        injected = []
        for key, val in cfg.items():
            flag = "--" + key.replace("_", "-")
            if not any(a == flag or a.startswith(flag + "=") for a in argv):
                injected.extend([flag, val])
        # drop the --config argument(s), then append config-derived flags after
        # the subcommand; explicitly passed flags already occupy their spot and win
        argv = argv[:idx] + argv[idx + width :]
        argv = argv + injected
    args = parser.parse_args(argv)
    for key, default in GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, default)
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # CapacityError, DegenerateSystem and the caps among them
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's "Unable to allocate ..." among them
        detail = f": {exc}" if str(exc) else ""
        print(f"validation error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
