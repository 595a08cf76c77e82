import json
import subprocess
import sys

import pytest

from qarith.circuit import clear_block_cache
from qarith.cli import CSV_HEADER, main
from qarith.analysis import log_grid


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


LISTING = """\
inplace_adder/Gidney  [params: n]
inplace_adder/TTK  [params: n]
inplace_adder/CDKM  [params: n]
inplace_adder/DKRS  [params: n]
inplace_adder/QFT  [params: n]
outofplace_adder/Gidney  [params: n]
outofplace_adder/DKRS  [params: n]
const_adder/ViaInPlace(Gidney)  [params: n (constant: sum of 4^i, i <= ceil(n/2))]
const_adder/ViaInPlace(TTK)  [params: n (constant: sum of 4^i, i <= ceil(n/2))]
const_adder/ViaInPlace(CDKM)  [params: n (constant: sum of 4^i, i <= ceil(n/2))]
const_adder/ViaInPlace(DKRS)  [params: n (constant: sum of 4^i, i <= ceil(n/2))]
const_adder/QFT  [params: n (constant: sum of 4^i, i <= ceil(n/2))]
subtractor/Gidney  [params: n]
subtractor/TTK  [params: n]
subtractor/CDKM  [params: n]
subtractor/DKRS  [params: n]
subtractor/QFT  [params: n]
multiplier/Schoolbook  [params: n (also Karatsuba(piece_size))]
multiplier/Karatsuba  [params: n (also Karatsuba(piece_size))]
multiplier/Karatsuba-8  [params: n (also Karatsuba(piece_size))]
divider/Restoring+Gidney  [params: n]
divider/Restoring+TTK  [params: n]
divider/Restoring+CDKM  [params: n]
divider/NonRestoring+Gidney  [params: n]
divider/NonRestoring+TTK  [params: n]
divider/NonRestoring+CDKM  [params: n]
modexp/LYY  [params: n (N = 2^n - 1; also LYYWindowed(w))]
modexp/LYYWindowed(1)  [params: n (N = 2^n - 1; also LYYWindowed(w))]
modexp/LYYWindowed(11)  [params: n (N = 2^n - 1; also LYYWindowed(w))]
modexp/LYYWindowedOpt  [params: n (N = 2^n - 1; also LYYWindowed(w))]
modmul_const/LYY  [params: n (N = 2^n - 1)]
table_lookup/UnaryIteration  [params: n (n address bits, n data bits, seeded random table)]
"""


def test_list_contains_expected_entries(capsys):
    # The whole listing, in order: a reordered or renamed row fails.
    assert run_cli(["list"], capsys) == (0, LISTING, "")


def test_verify_pass(capsys):
    code, out, _ = run_cli(
        ["verify", "--op-class", "inplace_adder", "--algo", "TTK", "--n-max", "4"],
        capsys,
    )
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out


@pytest.mark.parametrize("seed", [None, 99])
def test_verify_names_the_seed_of_a_sampled_check(capsys, seed):
    argv = ["verify", "--op-class", "inplace_adder", "--algo", "TTK", "--n-max", "7"]
    code, out, _ = run_cli(argv + (["--seed", str(seed)] if seed else []), capsys)
    assert code == 0
    assert out.splitlines()[-2:] == [
        "PASS inplace_adder/TTK n=6 (4096 exhaustive cases)",
        f"PASS inplace_adder/TTK n=7 (1000 random cases, seed {seed or 12345})",
    ]


def test_verify_divider_and_modexp(capsys):
    code, out, _ = run_cli(
        ["verify", "--op-class", "divider", "--algo", "Restoring+TTK", "--n-max", "3"],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(
        ["verify", "--op-class", "modexp", "--algo", "LYYWindowed(2)", "--n-max", "3"],
        capsys,
    )
    assert code == 0


def test_verify_checks_every_qft_size(capsys):
    code, out, err = run_cli(
        ["verify", "--op-class", "inplace_adder", "--algo", "QFT", "--n-max", "7"],
        capsys,
    )
    assert code == 0
    assert [line.split(" (")[0] for line in out.splitlines()] == [
        f"PASS inplace_adder/QFT n={n}" for n in range(1, 8)]
    assert err == ""


def test_verify_unknown_algorithm_exits_2(capsys):
    code, _, err = run_cli(
        ["verify", "--op-class", "inplace_adder", "--algo", "Nope", "--n-max", "3"],
        capsys,
    )
    assert code == 2
    assert "error:" in err


def test_verify_unlisted_const_adder_exits_2(capsys):
    # Refused by name before a build.
    code, out, err = run_cli(
        ["verify", "--op-class", "const_adder", "--algo", "ViaInPlace(QFT)",
         "--n-max", "10"], capsys,
    )
    assert code == 2
    assert out == ""
    assert err == "error: unknown constant adder 'ViaInPlace(QFT)'\n"


@pytest.mark.parametrize("op_class, algo, what", [
    ("inplace_adder", "Bogus", "in-place adder"),
    ("outofplace_adder", "TTK", "out-of-place adder"),
    ("const_adder", "ViaInPlace(QFT)", "constant adder"),
    ("subtractor", "Gidney ", "in-place adder"),
    ("multiplier", "Karatsuba(٣)", "multiplier"),
    ("divider", "Restoring+QFT", "divider"),
    ("modexp", "LYYWindowed(007)", "modexp algorithm"),
    ("modmul_const", "Montgomery", "modmul algorithm"),
    ("table_lookup", "Linear", "lookup algorithm"),
    # Past Python's 4,300-digit limit on int(str) conversion.
    pytest.param("multiplier", f"Karatsuba({'1' * 5000})", "multiplier",
                 id="multiplier-Karatsuba(5000 digits)-multiplier"),
    pytest.param("modexp", f"LYYWindowed({'2' * 4400})", "modexp algorithm",
                 id="modexp-LYYWindowed(4400 digits)-modexp algorithm"),
])
def test_sweep_unknown_algorithm_exits_2(capsys, op_class, algo, what):
    # Every op class refuses a name outside its grammar in one wording.
    code, out, err = run_cli(["sweep", "--op-class", op_class, "--algo", algo,
                              "--n-min", "8", "--n-max", "8"], capsys)
    assert (code, out, err) == (2, "", f"error: unknown {what} {algo!r}\n")


@pytest.mark.parametrize("op_class, algo, n_max, n_min", [
    ("inplace_adder", "TTK", 0, 1),
    ("modexp", "LYY", 1, 2),
    ("inplace_adder", "Bogus", 0, 1),
])
def test_verify_below_class_minimum_exits_2(capsys, op_class, algo, n_max, n_min):
    # An n-max that admits no size would check nothing; it must not pass.
    code, out, err = run_cli(
        ["verify", "--op-class", op_class, "--algo", algo, "--n-max", str(n_max)],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert f"smallest verified {op_class} size {n_min}" in err


def test_verify_unknown_op_class_exits_2(capsys):
    # Named as unknown before any size check, as build names it.
    code, out, err = run_cli(
        ["verify", "--op-class", "Bogus", "--algo", "X", "--n-max", "0"], capsys,
    )
    assert code == 2
    assert out == ""
    assert err == "error: unknown op class 'Bogus'\n"


def test_sweep_csv_schema(tmp_path, capsys):
    clear_block_cache()
    out_file = tmp_path / "adders.csv"
    code, _, _ = run_cli(
        [
            "sweep", "--op-class", "inplace_adder", "--algo", "TTK",
            "--n-min", "3", "--n-max", "16", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) - 1 == len(log_grid(3, 16))
    # t_count non-decreasing in n for a ripple-carry adder
    tvals = [int(line.split(",")[4]) for line in lines[1:]]
    assert tvals == sorted(tvals)


def test_sweep_json_mirrors_csv(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "sweep", "--op-class", "inplace_adder", "--algo", "Gidney",
            "--n-min", "3", "--n-max", "8", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == len(log_grid(3, 8))
    assert list(data[0]) == CSV_HEADER.split(",")


def test_sweep_deterministic(tmp_path, capsys):
    args = [
        "sweep", "--op-class", "multiplier", "--algo", "Schoolbook",
        "--n-min", "3", "--n-max", "8",
    ]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_pareto_schema_and_frontier(capsys):
    code, out, _ = run_cli(
        ["pareto", "--op-class", "multiplier", "--algo", "Schoolbook", "--n", "16"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) >= 2
    runtimes = [float(line.split(",")[12]) for line in lines[1:]]
    qubits = [int(line.split(",")[11]) for line in lines[1:]]
    assert runtimes == sorted(runtimes)
    assert qubits == sorted(qubits, reverse=True)


SMALLEST_SIZE = {("modexp", "LYY"): 2, ("modmul_const", "LYY"): 2,
                 ("const_adder", "QFT"): 1, ("table_lookup", "UnaryIteration"): 1}


@pytest.mark.parametrize("op_class, algo, n", [
    (*key, n) for key, n_min in SMALLEST_SIZE.items()
    for n in ("1", "0", "-1") if int(n) < n_min])
def test_pareto_below_the_smallest_size_exits_2(capsys, op_class, algo, n):
    # Refused before a constant, table or builder is made from n; an unknown
    # op class is still named first.
    code, out, err = run_cli(
        ["pareto", "--op-class", op_class, "--algo", algo, "--n", n], capsys)
    n_min = SMALLEST_SIZE[op_class, algo]
    assert (code, out, err) == (2, "", f"error: register size n must be >= {n_min}\n")
    code, _, err = run_cli(
        ["pareto", "--op-class", "bogus", "--algo", algo, "--n", n], capsys)
    assert (code, err) == (2, "error: unknown op class 'bogus'\n")


def test_pareto_refuses_a_table_lookup_past_the_cap(capsys):
    code, out, err = run_cli(["pareto", "--op-class", "table_lookup", "--algo",
                              "UnaryIteration", "--n", "21"], capsys)
    assert (code, out, err) == (
        2, "", "error: table_lookup draws a 2^n-entry table; n must be <= 20\n")


def test_fit_slope_on_exact_power_law(tmp_path, capsys):
    csv_file = tmp_path / "exact.csv"
    rows = [CSV_HEADER]
    for n in (2, 4, 8, 16):
        rows.append(f"multiplier,Fake,{n},1,{n*n},0,0,0,1,1,3,1,1.0,1")
    csv_file.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(["fit", "--input", str(csv_file), "--mode", "slope"], capsys)
    assert code == 0
    assert "slope=2.000000" in out


def test_fit_tipping(tmp_path, capsys):
    csv_file = tmp_path / "tip.csv"
    rows = [CSV_HEADER]
    for n, v in ((4, 100), (8, 400), (16, 1600)):
        rows.append(f"multiplier,A,{n},1,{v},0,0,0,1,1,3,1,1.0,1")
    for n, v in ((4, 200), (8, 390), (16, 900)):
        rows.append(f"multiplier,B,{n},1,{v},0,0,0,1,1,3,1,1.0,1")
    csv_file.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(["fit", "--input", str(csv_file), "--mode", "tipping"], capsys)
    assert code == 0
    assert "n=8" in out


def test_fit_window_roundtrip_from_sweep(tmp_path, capsys):
    clear_block_cache()
    csv_file = tmp_path / "window.csv"
    code, _, _ = run_cli(
        [
            "sweep", "--op-class", "modexp",
            "--algo", "LYYWindowed(2)", "--algo", "LYYWindowed(4)",
            "--algo", "LYYWindowed(6)",
            "--n-min", "8", "--n-max", "16", "--out", str(csv_file),
        ],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(["fit", "--input", str(csv_file), "--mode", "window"], capsys)
    assert code == 0
    assert "window model: c1=" in out
    assert "predicted optimal w=" in out


def test_fit_malformed_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    code, _, err = run_cli(["fit", "--input", str(bad), "--mode", "slope"], capsys)
    assert code == 2
    assert "error:" in err


def test_verify_failure_exits_1(capsys, monkeypatch):
    from qarith import catalog as cat
    from qarith.catalog import VerifyReport

    def fake_verify_range(op, algo, n_max, seed):
        return [
            VerifyReport(op, algo, 2, 16, True),
            VerifyReport(op, algo, 3, 64, False, "register b = 0, want 1"),
        ]

    monkeypatch.setattr(cat, "verify_range", fake_verify_range)
    code, out, _ = run_cli(
        ["verify", "--op-class", "inplace_adder", "--algo", "TTK", "--n-max", "3"],
        capsys,
    )
    assert code == 1
    assert "FAIL inplace_adder/TTK n=3: register b = 0, want 1" in out


def test_verify_superposed_output_fails_with_exit_1(capsys, monkeypatch):
    import dataclasses

    from qarith import adders
    from qarith.circuit import H

    build = adders.build_inplace_adder
    good = build("QFT", 2)
    b0 = next(r for r in good.data_registers if r.name == "b")[0]
    mutant = dataclasses.replace(good, gates=good.gates + ((H, (b0,), None),))
    monkeypatch.setattr(adders, "build_inplace_adder", lambda algo, n, counting=False: (
        mutant if n == 2 else build(algo, n, counting)))
    code, out, _ = run_cli(
        ["verify", "--op-class", "inplace_adder", "--algo", "QFT", "--n-max", "2"],
        capsys,
    )
    assert code == 1
    assert out.splitlines() == [
        "PASS inplace_adder/QFT n=1 (4 exhaustive cases)",
        "FAIL inplace_adder/QFT n=2: not a basis state for input {'a': 0, 'b': 0}",
    ]


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qarith.cli", "list"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "modexp/LYYWindowedOpt" in proc.stdout


def test_pareto_degenerate_params_exit_2(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("t_cycle_factor = 0\n")
    code, out, err = run_cli(
        ["pareto", "--op-class", "inplace_adder", "--algo", "TTK", "--n", "8",
         "--params", str(cfg)],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "t_cycle_factor" in err
