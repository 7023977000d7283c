import contextlib
from fractions import Fraction
import io
import itertools
import json
import math
import os
from pathlib import Path
import re
import subprocess
import sys
import tempfile
from unittest import mock
import warnings

from hypothesis import given, seed, settings, strategies as st
import jsonschema
import numpy as np
import pytest

from hlmlab import arith, cli, linsys, obstruction
from importlib import resources

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads(
    resources.files("hlmlab").joinpath("schemas/report.schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    report = json.loads(out, parse_constant=refuse_constant)
    jsonschema.validate(report, SCHEMA)
    return report


def test_singular_subcommand(capsys):
    report = run_json(capsys, "singular", "--system", "1,-2,1", "--p-max", "2000")
    results = report["results"]
    assert results["P0"] == 2000
    assert results["product"] == pytest.approx(4 * linsys.closed_form_S3(2000), rel=1e-9)
    assert 0 <= results["tail"] < 1e-3
    assert results["factors"][0] == [2, 2, 1]
    assert all(len(row) == 3 for row in results["factors"])


def test_singular_divides_rows_by_their_gcd(capsys):
    want = run_json(capsys, "singular", "--system", "1,1,-2", "--p-max", "1000")["results"]
    got = run_json(capsys, "singular", "--system",
                   "4000000000000000,4000000000000000,-8000000000000000",
                   "--p-max", "1000")["results"]
    assert got == want
    assert got["product"] == pytest.approx(1.3205, abs=1e-4)


def test_count_subcommand_small(capsys):
    report = run_json(capsys, "count", "--k", "3", "--n", "20")
    assert report["results"]["observed"] == 5.0
    assert report["N"] == 20


def test_count_system_with_large_coefficients(capsys):
    # 4e15 x_1 + 4e15 x_2 - 8e15 x_3 = 0 has the solutions of 1,1,-2
    report = run_json(capsys, "count", "--system",
                      "4000000000000000,4000000000000000,-8000000000000000", "--n", "3000")
    assert report["results"]["observed"] == 17386.0
    assert report["results"]["up_to_symmetry"] == 8478.0
    report = run_json(capsys, "count", "--system", "10000000000000000000,1,-1", "--n", "3000")
    assert report["results"]["observed"] == 0.0


def test_degenerate_system_exit_code(capsys):
    code, _, err = run_cli(capsys, "singular", "--system", "1,-2,1;2,-4,2")
    assert code == 2
    assert "rank deficient" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--n", "100", "--mode", "bogus"])
    assert exc.value.code == 1
    # one line naming the subcommand, no usage text before it
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "count" in err


def test_sieve_expsum_arcs(capsys, tmp_path):
    report = run_json(capsys, "sieve", "--n", "1000")
    assert report["results"]["pi"] == 168
    report = run_json(
        capsys, "expsum", "--n", "10000", "--theta", "0", "--weights", "mobius"
    )
    assert abs(report["results"]["values"][0]["re"]) < 0.01  # Mertens(1e4)/1e4
    report = run_json(
        capsys, "arcs", "--n", "1000000", "--thetas", "0.3333333333,0.41421356"
    )
    assert [r["verdict"] for r in report["results"]] == ["major", "minor"]


def test_sieve_mean_vonmangoldt_is_the_rounded_mean(capsys):
    # fsum of the nonzero values over N: within one ulp of the exact mean,
    # read block by block without the column
    for N in (1, 2, 2**16 + 1, 10**5):
        tab = arith.build_table(N)
        mean = arith.mean_vonmangoldt(tab)
        assert "vonmangoldt" not in tab.__dict__
        exact = sum(map(Fraction, tab.vonmangoldt[1:][tab.vonmangoldt[1:] != 0].tolist()),
                    Fraction(0)) / N
        assert abs(Fraction(mean) - exact) <= Fraction(math.ulp(float(exact)))
    # the value the whole column's mean gave at the benchmark's size
    report = run_json(capsys, "sieve", "--n", "2000000")
    assert report["results"]["mean_vonmangoldt"] == 1.0000575231035245


def test_sieve_mean_vonmangoldt_from_the_primes_is_the_block_fsum():
    # the fsum of log p over the prime powers, with no Lambda block, is the
    # float the fsum of the column's nonzero values in blocks of 2^16 gave
    for N in (1, 2, 10, 2**16, 2**16 + 1, 10**5, 2 * 10**6, 3 * 10**6):
        tab = arith.build_table(N)
        blocks = (b[b != 0].tolist() for b in arith.vonmangoldt_blocks(tab))
        assert arith.mean_vonmangoldt(tab) == math.fsum(itertools.chain.from_iterable(blocks)) / N


def test_typesums_subcommand(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HLM_DATA_DIR", str(tmp_path))
    report = run_json(
        capsys, "typesums", "--n", "10000", "--d", "10", "--phase", "1.41421356237"
    )
    assert report["results"]["type1"] <= 0.05 * 10000
    assert list(tmp_path.iterdir()) == []  # the phase branch reads no table
    report = run_json(
        capsys, "typesums", "--n", "4096", "--d", "32", "--w", "32", "--weights", "mobius"
    )
    assert report["results"]["type2"] > 0


def test_gowers_and_nilseq_subcommands(capsys, tmp_path):
    report = run_json(capsys, "gowers", "--m", "32", "--k", "3", "--seed", "9")
    assert set(report["results"]) == {"k", "M", "value", "method"}
    assert report["results"]["M"] == 32 and report["results"]["method"] == "fft"
    assert 0 < report["results"]["value"] < 1
    path = tmp_path / "f.csv"
    np.savetxt(path, np.ones(16))
    report = run_json(capsys, "gowers", "--k", "2", "--input", str(path))
    assert report["results"]["value"] == pytest.approx(1.0)
    np.savetxt(path, np.ones(1))  # one column of one value: refused for its length
    code, _, err = run_cli(capsys, "gowers", "--k", "2", "--input", str(path))
    assert code == 2 and "M >= 2" in err

    report = run_json(
        capsys, "nilseq", "--alpha-g", "1.41421356", "--gamma-g", "1.7320508",
        "--n", "100", "--character", "vertical:1",
    )
    assert len(report["results"]["head"]) == 10
    assert report["results"]["lipschitz_estimate"] > 0


def test_nilseq_csv_stays_near_its_table(tmp_path, traced_peak):
    # the orbit, F, the rows and the CSV text are made block by block and
    # no (n, 5) table is made, so the peak does not grow with n: at this n
    # it traced 11.25 MiB with the whole table (bound 40n + 4 MiB) and
    # 4.88 MiB streamed (whole-length temporaries took 105 bytes a row)
    n = 2 * 10**5
    argv = ["nilseq", "--alpha-g", repr(math.sqrt(2)), "--beta-g", "0.1", "--gamma-g",
            repr(math.sqrt(3)), "--n", str(n), "--format", "csv", "--out", str(tmp_path / "o.csv")]
    assert traced_peak(lambda: cli.main(argv)) <= 6 << 20


# spawns one command from this small interpreter and prints its exit code
# and peak RSS: a child's ru_maxrss starts from the RSS of the process that
# forked it, so a child of the test process would read at least its size
_PEAK_SHIM = ("import os, sys; pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ); "
              "_, status, usage = os.wait4(pid, 0); "
              "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


def run_child(argv, **env) -> str:
    """The stdout of `python *argv`, run to exit 0 without a table cache and
    with env added to this process's environment. Bytecode caching stays on,
    so a child compiles a stale module once and later children, the --help
    baseline among them, load it as a user's would."""
    env = {**{k: v for k, v in os.environ.items()
              if k not in ("HLM_DATA_DIR", "PYTHONDONTWRITEBYTECODE")}, **env}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          check=True).stdout


def child_peaks_mb(argvs: dict) -> dict:
    """name -> the peak RSS in MB of `python -m hlmlab.cli *argv`, each run
    to exit 0 without a table cache."""
    peak_mb = {}
    for name, argv in argvs.items():
        shim = run_child(["-I", "-S", "-c", _PEAK_SHIM, sys.executable, "-m", "hlmlab.cli", *argv])
        code, rss_kb = map(int, shim.split()[-2:])
        assert code == 0, name
        peak_mb[name] = rss_kb / 1024  # KiB on Linux
    return peak_mb


def test_gowers_children_stay_near_the_help_child():
    # each child's own peak RSS against one that loads the same interpreter,
    # numpy and hlmlab and prints the usage; with Gowers blocks of 2^20
    # elements the two runs read +40 MB and +31 MB
    peak_mb = child_peaks_mb({"help": ["--help"], "k4": ["gowers", "--k", "4", "--m", "256"],
                              "k3": ["gowers", "--k", "3", "--m", "4096"]})
    for name in ("k4", "k3"):
        assert peak_mb[name] - peak_mb["help"] <= 16, peak_mb


def test_obstruction_and_mobius_children_stay_near_the_help_child():
    # as above; A10 alone and mobius-corr at 10^6 read +19.4 MB and +13.5 MB
    # while the constraint grid, the obstruction phases and the battery's
    # support were whole arrays, and +8.2 MB and +9.8 MB in blocks of 2^16
    peak_mb = child_peaks_mb({"help": ["--help"],
                              "obstruction": ["acceptance", "--only", "obstruction"],
                              "mobius": ["mobius-corr", "--n", "1000000"]})
    for name in ("obstruction", "mobius"):
        assert peak_mb[name] - peak_mb["help"] <= 12, peak_mb


def test_exp_sum_spot_child_stays_near_the_help_child():
    # as above; A5 alone read +13.3-13.4 MB while it summed over Lambda's 8 B/n
    # column, and +6.2-6.4 MB with Lambda streamed in blocks of 2^16
    peak_mb = child_peaks_mb({"help": ["--help"], "a5": ["acceptance", "--only", "A5"]})
    assert peak_mb["a5"] - peak_mb["help"] <= 10, peak_mb


def test_phase_spectral_children_stay_near_the_help_child(tmp_path):
    # as above; the three read +21.5, +20.7 and +18.4 MB with Lambda's 8 B/n
    # column made for the dump and the mean, 2^18-point class transforms,
    # and numpy.random imported for a Lipschitz estimate nothing read, and
    # +12.2, +10.2 and +13.9 MB with Lambda streamed in blocks of 2^16,
    # 2^16-point classes folded two at a time, and the estimate made when
    # first read. sieve, typesums and nilseq read +12.0, +12.5 and +13.5 MB
    # with mu's int32 products whole-length, numpy.random drawing the Type
    # II start vector, and the nilseq table whole, and +5.6, +4.7 and +8.0
    # MB with mu segmented, a start vector drawn without numpy.random and
    # the CSV streamed block by block
    n = "2000000"
    peak_mb = child_peaks_mb({
        "help": ["--help"],
        "sieve": ["sieve", "--n", n, "--dump", str(tmp_path / "t.hlm2")],
        "expsum": ["expsum", "--n", n, "--theta", "0.5", "--weights", "mobius"],
        "typesums": ["typesums", "--n", n, "--d", "1000", "--w", "1000"],
        "nilseq": ["nilseq", "--alpha-g", repr(math.sqrt(2)), "--gamma-g", repr(math.sqrt(3)),
                   "--n", "200000", "--format", "csv", "--out", str(tmp_path / "o.csv")]})
    for name, bound in (("sieve", 9), ("expsum", 17), ("typesums", 9), ("nilseq", 11)):
        assert peak_mb[name] - peak_mb["help"] <= bound, peak_mb


def test_weighted_ap_count_child_stays_near_the_help_child():
    # as above; the weighted 3-AP average at 3*10^6 read +27.1 MB with one
    # transform of 500,000 points per parity class, and +16.8 MB with each
    # read as R = 8 frequency classes of 62,500 points. It read +17.2 MB
    # with the 3 MB is_prime column sieved whole and json.dumps's chunk
    # list, and +14.3 MB with Lambda's classes taken from sieved segments
    # and the chunks joined in batches
    peak_mb = child_peaks_mb({"help": ["--help"],
                              "weighted": ["count", "--k", "3", "--weighted", "--n", "3000000"]})
    assert peak_mb["weighted"] - peak_mb["help"] <= 16, peak_mb


def test_singular_child_stays_near_the_help_child():
    # as above; the 4-AP series to 2*10^5 (17,984 factors in the report)
    # read +17.2 MB with |log alpha_p| over all 130,949 tail primes at once
    # and json.dumps's list of every chunk, and +12.1 MB with the tail in
    # blocks of 2^16 primes and the chunks joined in batches
    peak_mb = child_peaks_mb({"help": ["--help"], "singular": [
        "singular", "--system", "1,-2,1,0;0,1,-2,1", "--p-max", "200000"]})
    assert peak_mb["singular"] - peak_mb["help"] <= 14, peak_mb


def test_reports_do_not_depend_on_the_blas_thread_count():
    # the weighted 3-AP average read its product through BLAS ddot, whose
    # summation order follows the thread count (...2341 with one thread,
    # ...234 with two); sup_exp_sum's grouped folds and the weighted
    # average's class folds (R = 3 at 10^6) are small GEMMs, the Type II
    # sums a matvec and the U^2 base a GEMM at M <= 128
    for argv in (["count", "--k", "3", "--weighted", "--n", "1000000"],
                 ["expsum", "--n", "1000000", "--weights", "mobius"],
                 ["typesums", "--n", "200000", "--d", "100", "--w", "100"],
                 ["gowers", "--k", "3", "--m", "101"]):
        outs = []
        for threads in ("1", "2"):
            out = run_child(["-m", "hlmlab.cli", *argv], OPENBLAS_NUM_THREADS=threads)
            outs.append(re.sub(r'"timestamp": "[^"]*"', "", out))
        assert outs[0] == outs[1], argv


def test_no_command_imports_numpy_random(tmp_path):
    # numpy.random loads _hashlib and libcrypto through secrets, about 6 MB
    # of RSS per child; every draw in the package, acceptance's A7-A9, the
    # gowers --m input, Monte Carlo counts, the Lipschitz estimate in the
    # nilseq JSON, the Type II start vector and the Bernoulli control set,
    # comes from hlmlab._rng, which draws numpy's stream without it
    argvs = [
        ["nilseq", "--alpha-g", "1.41", "--n", "1000", "--format", "csv",
         "--out", str(tmp_path / "o.csv")],
        ["nilseq", "--alpha-g", "1.41", "--n", "1000"],
        ["mobius-corr", "--n", "10000"],
        ["expsum", "--n", "10000", "--weights", "mobius"],
        ["sieve", "--n", "10000"],
        ["count", "--system", "1,-2,1,0;0,1,-2,1", "--n", "200"],
        ["count", "--system", "1,1,-2", "--n", "300", "--mode", "montecarlo",
         "--samples", "1000"],
        ["typesums", "--n", "10000", "--d", "25", "--w", "25"],
        ["gowers", "--m", "64", "--k", "3"],
        ["acceptance", "--only", "A7"],
        ["acceptance", "--only", "A8"],
        ["acceptance", "--only", "A9"],
    ]
    script = ("import contextlib, io, json, sys\n"
              "from hlmlab import cli, obstruction\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
              "        assert cli.main(argv) == 0, argv\n"
              "    if argv[0] == 'count':\n"
              "        method = 'montecarlo' if 'montecarlo' in argv else 'enumerate'\n"
              "        assert json.loads(out.getvalue())['results']['method'] == method\n"
              "    if argv[0] == 'nilseq' and 'csv' not in argv:\n"
              "        assert json.loads(out.getvalue())['results']['lipschitz_estimate'] > 0\n"
              "    print(argv[0], 'numpy.random' in sys.modules)\n"
              "obstruction.random_control_set(10000, 0.1, seed=3)\n"
              "print('random_control_set', 'numpy.random' in sys.modules)\n")
    lines = run_child(["-c", script, json.dumps(argvs)]).split("\n")
    names = [argv[0] for argv in argvs] + ["random_control_set"]
    assert lines[:-1] == [f"{name} False" for name in names]


def test_gowers_acceptance_child_stays_near_the_help_child():
    # as above; A7 and A8 read +9.0 MB over --help while they drew from
    # numpy.random, and +3.2 MB drawing the same stream from hlmlab._rng
    peak_mb = child_peaks_mb({"help": ["--help"], "gowers": ["acceptance", "--only", "gowers"]})
    assert peak_mb["gowers"] - peak_mb["help"] <= 6, peak_mb


def test_count_sweep_csv_mode(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--k", "3", "--sweep", "500,1000", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,descriptor,observed,predicted,ratio,method"
    assert len(lines) == 3
    assert lines[2].startswith("1000,3-AP,1500.0,")


def test_gowers_table_weights(capsys):
    report = run_json(capsys, "gowers", "--m", "101", "--k", "2", "--weights", "mobius")
    assert 0 < report["results"]["value"] < 1


def test_mobius_corr_subcommand(capsys):
    report = run_json(capsys, "mobius-corr", "--n", "10000")
    assert len(report["results"]) == 5
    assert all(v < 0.1 for v in report["results"].values())


def test_obstruction_subcommand(capsys, tmp_path):
    bits = tmp_path / "a1.bits"
    report = run_json(
        capsys, "obstruction", "--kind", "A1", "--n", "5000", "--alpha", "0.1",
        "--bitset", str(bits),
    )
    assert report["results"]["density"] == pytest.approx(0.1, abs=0.02)
    assert bits.stat().st_size == 625


def test_obstruction_with_no_members(capsys):
    # alpha = 1e-9 leaves A1 empty at this N: predicted counts are 0, so the
    # ratios are null, as is a completion probability with no triples
    results = run_json(capsys, "obstruction", "--kind", "A1", "--n", "1000",
                       "--alpha", "1e-9")["results"]
    assert (results["density"], results["ap3"], results["ap4"]) == (0.0, 0, 0)
    assert results["ratios"] == {"ap3": None, "ap4": None}
    assert results["completion_prob"] is None


def test_obstruction_exports(capsys, tmp_path):
    csv_path, bit_path = tmp_path / "members.csv", tmp_path / "members.bits"
    run_json(
        capsys, "obstruction", "--kind", "A1", "--n", "100000", "--alpha", "0.1",
        "--members-csv", str(csv_path), "--bitset", str(bit_path),
    )
    obset = obstruction.build("A1", 10**5, 0.1)
    membership = obset.membership
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n"
    assert len(lines) == 1 + int(membership.sum())
    assert int(lines[1]) == int(obset.members()[0])

    raw = np.fromfile(bit_path, dtype=np.uint8)
    assert raw.size == math.ceil(10**5 / 8)
    unpacked = np.unpackbits(raw)[: 10**5].astype(bool)
    assert np.array_equal(unpacked, membership)


def test_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "expsum", "--n", "1000", "--theta", "0.5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,re,im,abs"
    assert len(lines) == 2


def test_report_determinism(capsys, tmp_path):
    args = ["count", "--k", "3", "--n", "500", "--seed", "42"]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    strip = lambda text: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)
    assert strip(out_a.read_text()) == strip(out_b.read_text())


def test_json_reports_are_the_dumps_text(capsys, tmp_path):
    # _emit joins the encoder's chunks in batches of cli._JSON_BATCH; the
    # text is json.dumps's, byte for byte, across many batch boundaries
    code, out, _ = run_cli(capsys, "singular", "--system", "1,-2,1,0;0,1,-2,1",
                           "--p-max", "20000")
    assert code == 0
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(report)
    assert sum(1 for _ in chunks) > 3 * cli._JSON_BATCH
    path = tmp_path / "acceptance.json"
    code, _, _ = run_cli(capsys, "acceptance", "--out", str(path))
    assert code == 3  # A4 is red at its frozen sizes
    text = path.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_a_nan_late_in_a_report_writes_nothing(capsys, tmp_path, monkeypatch):
    # the NaN product follows a few batches of factors: a report is written
    # only once all of it has encoded, so nothing reaches stdout or --out
    factors = {p: Fraction(p, p - 1) for p in range(2, 3000)}
    monkeypatch.setattr(linsys, "singular_series",
                        lambda system, P0: linsys.SingularSeries(factors, math.nan, P0, 0.0))
    out_file = tmp_path / "report.json"
    for out_args in ([], ["--out", str(out_file)]):
        code, out, err = run_cli(capsys, "singular", "--system", "1,-2,1", *out_args)
        assert code == 2 and out == "" and not out_file.exists()
        assert err.startswith("validation error: ") and err.count("\n") == 1


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=1000\nk=3\n")
    report = run_json(capsys, "count", "--config", str(cfg))
    assert report["N"] == 1000
    report = run_json(capsys, "count", "--config", str(cfg), "--n", "20")
    assert report["N"] == 20 and report["results"]["observed"] == 5.0
    report = run_json(capsys, "count", f"--config={cfg}")
    assert report["N"] == 1000
    report = run_json(capsys, "count", f"--config={cfg}", "--n", "20")
    assert report["N"] == 20 and report["results"]["observed"] == 5.0


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "20", "--config"],
        ["count", "--config", "{tmp}/absent.cfg"],
        ["count", "--k", "3", "--n", "20", "--out", "{tmp}/absent/report.json"],
    ],
    ids=["config-without-value", "config-missing", "out-directory-missing"],
)
def test_bad_file_arguments_end_in_one_error_line(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["nilseq", "--alpha-g", "1.3", "--n", "0"],
        ["nilseq", "--alpha-g", "1.3", "--n", "-3"],
        ["nilseq", "--alpha-g", "nan", "--n", "5"],
        ["nilseq", "--alpha-g", "nan", "--n", "5", "--format", "csv"],
        ["nilseq", "--alpha-g", "1e308", "--n", "5"],
        ["nilseq", "--alpha-g", "1e308", "--n", "5", "--format", "csv"],
        ["nilseq", "--alpha-g", "1e200", "--gamma-g", "1e200"],
        ["nilseq", "--alpha-g", "1e200", "--gamma-g", "1e200", "--format", "csv"],
        ["expsum", "--n", "100", "--theta", "nan", "--format", "csv"],
        ["expsum", "--n", "100", "--theta", "inf"],
        ["typesums", "--n", "100", "--d", "5", "--phase", "inf"],
        ["arcs", "--n", "100", "--thetas", "0.25,-inf"],
        ["count", "--system", "1,1,-2", "--n", "100000"],
        ["count", "--system", "1,1,-2", "--n", "1000", "--mode", "montecarlo",
         "--samples", "1000000000"],
        ["count", "--system", "10000000000000000000,1,-1", "--n", "1000", "--mode", "montecarlo"],
        ["count", "--system", "1,-2,1,0;0,1,-2,4000000000000000001", "--n", "100"],
        ["singular", "--system", "1,-1,1,1;-3,1,3,1", "--p-max", "1000"],
        ["count", "--system", "1,-1,1,1;-3,1,3,1", "--n", "100"],
        ["arcs", "--n", "100", "--grid", "0"],
        ["arcs", "--n", "100", "--grid", "-3"],
        ["gowers", "--input", "{tmp}/empty.csv"],
        ["gowers", "--input", "{tmp}/one_value.csv"],
        ["gowers", "--input", "{tmp}/one_row.csv"],
        ["singular", "--system", "1,-2,1", "--p-max", "-5"],
        ["singular", "--system", "1,-2,1", "--p-max", str(arith.DEFAULT_LIMIT_CAP // 10 + 1)],
        ["gowers", "--m", "64", "--k", "-1", "--method", "bruteforce"],
        ["gowers", "--m", "64", "--k", "0", "--method", "bruteforce"],
        ["gowers", "--m", "64", "--k", "5", "--method", "bruteforce"],
        ["arcs", "--n", "100", "--exponent", "inf"],
        ["arcs", "--n", "100", "--exponent", "1e20"],
        ["arcs", "--n", "100", "--exponent", "1e300"],
        ["expsum", "--n", "100", "--theta", "1e308"],
        ["typesums", "--n", "100", "--d", "5", "--phase", "1e308"],
        ["typesums", "--phase", "0.1", "--n", str(10**30), "--d", "10"],
        ["nilseq", "--alpha-g", "1.3", "--gamma-g", "0.3", "--n", "10",
         "--character", f"torus:1,{10**308}"],
        ["nilseq", "--alpha-g", "1.3", "--gamma-g", "0.3", "--n", "10",
         "--character", f"torus:1,{10**308}", "--format", "csv"],
        ["nilseq", "--alpha-g", "1.3", "--n", "10", "--character", f"vertical:{10**400}"],
    ],
    ids=["nilseq-n-zero", "nilseq-n-negative", "nilseq-nan", "nilseq-nan-csv",
         "nilseq-orbit-overflow", "nilseq-orbit-overflow-csv", "nilseq-product-overflow",
         "nilseq-product-overflow-csv",
         "expsum-nan-csv", "expsum-theta-inf", "typesums-phase-inf", "arcs-thetas-inf",
         "count-cells-over-cap", "count-samples-over-cap", "count-montecarlo-past-int64",
         "count-enumeration-past-int64", "singular-non-saturated", "count-non-saturated",
         "arcs-grid-zero", "arcs-grid-negative", "gowers-empty-input", "gowers-one-value",
         "gowers-one-row", "singular-p-max-negative", "singular-p-max-over-cap",
         "gowers-bruteforce-k-negative",
         "gowers-bruteforce-k-zero", "gowers-bruteforce-k-five", "arcs-exponent-inf",
         "arcs-exponent-1e20", "arcs-exponent-1e300", "expsum-theta-product-overflow",
         "typesums-phase-product-overflow", "typesums-phase-n-over-cap",
         "nilseq-character-overflow", "nilseq-character-overflow-csv",
         "nilseq-character-past-float"],
)
def test_bad_input_ends_in_one_validation_error(capsys, tmp_path, monkeypatch, argv):
    out_file = tmp_path / "report.out"
    # every singular case is refused before its sieve of 10 * P0 bytes
    monkeypatch.setattr(linsys, "prime_sieve", lambda N: pytest.fail(f"sieved {N}"))
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "one_value.csv").write_text("0.5\n")
    (tmp_path / "one_row.csv").write_text("0.1,0.2,0.3,0.4\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    for out_args in ([], ["--out", str(out_file)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print a second line
            code, out, err = run_cli(capsys, *argv, *out_args)
        assert code == 2 and out == "" and not out_file.exists()
        assert err.startswith("validation error: ") and err.count("\n") == 1


_NUMPY_CORE = np._core if hasattr(np, "_core") else np.core  # renamed in numpy 2


@pytest.mark.parametrize("exc", [MemoryError(), _NUMPY_CORE._exceptions._ArrayMemoryError(
    (10**12,), np.dtype(np.float64))], ids=["bare", "numpy"])
def test_memory_error_ends_in_one_validation_error(capsys, monkeypatch, exc):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_sieve", fail)
    code, out, err = run_cli(capsys, "sieve", "--n", "100")
    assert code == 2 and out == ""
    assert err.startswith("validation error: out of memory") and err.count("\n") == 1
    assert str(exc) in err


def test_data_dir_cache(capsys, tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("HLM_DATA_DIR", str(cache_dir))
    report_first = run_json(capsys, "sieve", "--n", "2000")
    cache = cache_dir / "table_2000.hlm2"
    assert cache.exists()
    report_second = run_json(capsys, "sieve", "--n", "2000")
    assert report_first["results"] == report_second["results"]
    assert sorted(p.name for p in cache_dir.iterdir()) == ["table_2000.hlm2"]
    # a smaller N reads a prefix of the cached table and caches nothing more
    for argv in (["sieve", "--n", "1000"], ["gowers", "--m", "64", "--k", "3", "--weights", "mobius"]):
        cached = run_json(capsys, *argv)
        assert sorted(p.name for p in cache_dir.iterdir()) == ["table_2000.hlm2"]
        with monkeypatch.context() as m:
            m.delenv("HLM_DATA_DIR")
            assert run_json(capsys, *argv)["results"] == cached["results"]
    dump = tmp_path / "dump.hlm2"
    run_json(capsys, "sieve", "--n", "1000", "--dump", str(dump))
    assert dump.stat().st_size == 12 + 2 * 1000  # is_prime and mu, no Lambda
    arith.dump_table(arith.build_table(1000), tmp_path / "fresh.hlm2")
    assert dump.read_bytes() == (tmp_path / "fresh.hlm2").read_bytes()
    # a concurrent writer's partial file is never read as a cached table
    (cache_dir / "table_3000.hlm2.123.tmp").write_bytes(b"partial")
    run_json(capsys, "sieve", "--n", "2500")
    assert sorted(p.name for p in cache_dir.iterdir()) == [
        "table_2000.hlm2", "table_2500.hlm2", "table_3000.hlm2.123.tmp"]


def strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)


def test_an_old_bin_cache_is_neither_read_nor_an_error(capsys, tmp_path, monkeypatch):
    # an HLM1 table_<N>.bin (is_prime, mu and Lambda as f64) from an older
    # release: the run caches table_<N>.hlm2 beside it and reports what a
    # run with no cache reports
    N = 3000
    tab = arith.build_table(N)
    old = tmp_path / f"table_{N}.bin"
    old.write_bytes(b"HLM1" + N.to_bytes(8, "little") + tab.is_prime[1:].tobytes()
                    + tab.mobius[1:].tobytes() + tab.vonmangoldt[1:].astype("<f8").tobytes())
    raw = old.read_bytes()
    for argv in (["sieve", "--n", str(N)], ["expsum", "--n", str(N), "--theta", "0.5"],
                 ["typesums", "--n", str(N), "--d", "20", "--weights", "lambda"]):
        monkeypatch.delenv("HLM_DATA_DIR", raising=False)
        want = run_cli(capsys, *argv)
        monkeypatch.setenv("HLM_DATA_DIR", str(tmp_path))
        for _ in ("cold", "warm"):
            code, out, err = run_cli(capsys, *argv)
            assert (code, strip_timestamp(out), err) == (want[0], strip_timestamp(want[1]),
                                                         want[2]), argv
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"table_{N}.bin",
                                                              f"table_{N}.hlm2"]
    assert old.read_bytes() == raw


_FUZZ_SIZES = st.one_of(  # a valid size about half the time
    st.integers(1, 10**4).map(str), st.integers(10**3, 10**4).map(str),
    st.integers(arith.DEFAULT_LIMIT_CAP + 1, 10**30).map(str),
    st.sampled_from(["0", "1", "-1", "nan", "inf", "-inf", "1e308", "abc", ""]))
_FUZZ_DATA_DIRS = ("unset", "empty", "missing") * 2 + (
    "hlm1-bin", "truncated", "wrong-magic", "huge-header", "directory")


def _fuzz_data_dir(root: Path, kind: str, M: int):
    """HLM_DATA_DIR for one fuzz case: None (unset), or a directory under
    root holding one kind of stale or broken table file named for limit M."""
    if kind == "unset":
        return None
    path = root / "data"
    if kind == "missing":
        return path
    path.mkdir()
    head = b"HLM2" + M.to_bytes(8, "little")
    files = {"hlm1-bin": (f"table_{M}.bin", b"HLM1" + head[4:] + bytes(10 * M)),
             "truncated": (f"table_{M}.hlm2", head + bytes(2 * M - 5)),
             "wrong-magic": (f"table_{M}.hlm2", b"XXXX" + head[4:] + bytes(2 * M)),
             "huge-header": (f"table_{M}.hlm2", b"HLM2" + (2**40).to_bytes(8, "little")
                             + bytes(100))}
    if kind == "directory":
        (path / f"table_{M}.hlm2").mkdir()
    elif kind in files:
        name, data = files[kind]
        (path / name).write_bytes(data)
    return path


def run_fuzz_case(argv, data_dir: str, limit: int, use_out: bool) -> None:
    """Run one fuzz case twice in one data directory, the second time
    reading any table the first cached; both must exit with a documented
    code, print nothing on stdout after a refusal, write exactly one stderr
    line and no --out file then, raise no warning, and agree."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cache = _fuzz_data_dir(root, data_dir, limit)
        out_file = root / "report.out"
        argv = argv + (["--out", str(out_file)] if use_out else [])
        env = {k: v for k, v in os.environ.items() if k != "HLM_DATA_DIR"}
        if cache is not None:
            env["HLM_DATA_DIR"] = str(cache)
        runs = []
        with mock.patch.dict(os.environ, env, clear=True):
            for _ in range(2):
                stdout, stderr = io.StringIO(), io.StringIO()
                with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    warnings.simplefilter("error")
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                out, err = stdout.getvalue(), stderr.getvalue()
                assert code in (0, 1, 2), (argv, code, err)
                if code:
                    assert out == "" and not out_file.exists(), argv
                    assert err.count("\n") == 1 and err.startswith(("error: ",
                                                                      "validation error: ")), err
                else:
                    assert err == "" and (out == "") == use_out, argv
                    if use_out:
                        out = out_file.read_text()
                        out_file.unlink()
                runs.append((code, strip_timestamp(out)))
        assert runs[0] == runs[1], argv


# --oversample is left out: expsum's sup grid has no size bound yet, so a
# drawn value could ask for a transform of any length
@settings(max_examples=200, deadline=None, database=None)
@seed(32)
@given(command=st.sampled_from(["sieve", "expsum", "typesums", "gowers"]),
       n=_FUZZ_SIZES, weights=st.sampled_from(["lambda", "mobius"]),
       theta=st.sampled_from(["0.5", "0", "0.125", "nan", "inf", "1e308", "x"]),
       d=st.sampled_from(["10", "30", "30", "0", "-1", "nan", "100000"]),
       w=st.sampled_from([None, None, "30", "0", "abc"]),
       data_dir=st.sampled_from(_FUZZ_DATA_DIRS), limit=st.sampled_from([10, 10**4]),
       use_out=st.booleans())
def test_fuzzed_table_commands_end_in_a_documented_exit(command, n, weights, theta, d, w,
                                                        data_dir, limit, use_out):
    argv = {"sieve": ["sieve", "--n", n],
            "expsum": ["expsum", "--n", n, "--theta", theta, "--weights", weights],
            "typesums": ["typesums", "--n", n, "--d", d, "--weights", weights]
                        + ([] if w is None else ["--w", w]),
            "gowers": ["gowers", "--m", n, "--k", "2", "--weights", weights]}[command]
    run_fuzz_case(argv, data_dir, limit, use_out)


_FUZZ_SYSTEMS = ("1,-2,1", "1,1,-2", "1,1,1,-3", "1,-2,1,0;0,1,-2,1", "2,-4,2",
                 "1,-1,1,1;-3,1,3,1", "1,-1,0", "1,2", "0,0,0", "1;2", "1,2,3;4,5", "1,,2",
                 "x", "")


@settings(max_examples=60, deadline=None, database=None)
@seed(33)
@given(system=st.sampled_from(_FUZZ_SYSTEMS),
       p_max=st.sampled_from(["0", "1", "2", "-1", "10000",
                              str(arith.DEFAULT_LIMIT_CAP // 10 + 1), "nan", "abc"]),
       use_out=st.booleans())
def test_fuzzed_singular_ends_in_a_documented_exit(system, p_max, use_out):
    run_fuzz_case(["singular", "--system", system, "--p-max", p_max], "unset", 10, use_out)


@settings(max_examples=60, deadline=None, database=None)
@seed(33)
@given(k=st.sampled_from(["-1", "0", "2", "3", "4", "5"]), n=_FUZZ_SIZES,
       weighted=st.booleans(), data_dir=st.sampled_from(_FUZZ_DATA_DIRS),
       limit=st.sampled_from([10, 10**4]), use_out=st.booleans())
def test_fuzzed_ap_counts_end_in_a_documented_exit(k, n, weighted, data_dir, limit, use_out):
    argv = ["count", "--k", k, "--n", n] + (["--weighted"] if weighted else [])
    run_fuzz_case(argv, data_dir, limit, use_out)


def test_count_parses_the_system_once_before_the_table(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HLM_DATA_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, "count", "--system", "1,1", "--n", "1000")
    assert code == 2 and out == ""
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
    monkeypatch.delenv("HLM_DATA_DIR")
    parse = mock.Mock(wraps=linsys.parse_system)
    monkeypatch.setattr(linsys, "parse_system", parse)
    run_json(capsys, "count", "--system", "1,1,-2", "--sweep", "100,200,300")
    assert parse.call_count == 1


def test_count_checks_k_before_the_table(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HLM_DATA_DIR", str(tmp_path))
    for argv, message in ((["--k", "2", "--n", "5000"], "need k >= 3"),
                          (["--k", "5", "--weighted", "--n", "6000"], "k in {3, 4}")):
        code, out, err = run_cli(capsys, "count", *argv)
        assert code == 2 and out == ""
        assert err.startswith("validation error: ") and message in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_data_dir_cache_failed_dump_leaves_no_table(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HLM_DATA_DIR", str(tmp_path))

    def failing_dump(table, path):
        with open(path, "wb") as fh:
            fh.write(arith.MAGIC)  # a partial table, then the disk fills up
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(arith, "dump_table", failing_dump)
    code, out, err = run_cli(capsys, "sieve", "--n", "2000")
    assert code == 1 and out == "" and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    monkeypatch.setenv("HLM_DATA_DIR", str(tmp_path))
    run_json(capsys, "sieve", "--n", "2000")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table_2000.hlm2"]


def test_acceptance_filter_and_exit(capsys, tmp_path):
    report_path = tmp_path / "acc.json"
    code, out, _ = run_cli(
        capsys, "acceptance", "--only", "A1", "--out", str(report_path)
    )
    assert code == 0
    assert "PASS A1" in out
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["results"][0]["passed"] is True
    code, _, err = run_cli(capsys, "acceptance", "--only", "nope")
    assert code == 1


def test_acceptance_mutation_fails(capsys, monkeypatch):
    from hlmlab import acceptance as acc

    monkeypatch.setattr(acc.linsys, "closed_form_S3", lambda P0: -1.0)
    code, out, _ = run_cli(capsys, "acceptance", "--only", "A1")
    assert code == 3
    assert "FAIL A1" in out
