import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import ottochain
from ottochain.analytic4 import spectrum4
from ottochain.cli import main


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_spectrum_sixteen_rows(tmp_path):
    code, text = run_cli(["spectrum", "--n", "4", "--e-field", "1"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["e-field", "level", "energy", "sz_sector"]
    assert len(rows) == 16
    energies = np.array([float(r[2]) for r in rows])
    assert energies == pytest.approx(np.sort(spectrum4(1.0, 1.0, 1.0)), abs=1e-10)


def test_spectrum_larger_ring(tmp_path):
    code, text = run_cli(["spectrum", "--n", "8"], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert len(rows) == 256


def test_metadata_lines_echo_parameters(tmp_path):
    _, text = run_cli(["spectrum", "--n", "4", "--b-field", "2.5"], tmp_path)
    meta = [l for l in text.splitlines() if l.startswith("#")]
    assert any("b_field = 2.5" in l for l in meta)
    assert any("command = spectrum" in l for l in meta)


def test_tangles_threshold_crossing(tmp_path):
    # the d=1, b=1 two-tangle dies between T=6.5 and T=7.5 (at 6.96)
    code, text = run_cli(
        ["tangles", "--n", "4", "--e-field", "1", "--sweep", "t:2:12:41"],
        tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    ts = np.array([float(r[0]) for r in rows])
    tau2 = np.array([float(r[header.index("tau2")]) for r in rows])
    assert tau2[ts <= 6.5].min() > 0.0
    assert np.all(tau2[ts >= 7.5] == 0.0)


def test_tangles_logs_one_info_line(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("OTTO_LOG", "INFO")
    caplog.set_level(logging.INFO, logger="ottochain")
    code, _ = run_cli(
        ["tangles", "--n", "4", "--sweep", "t:2:60:5"], tmp_path)
    assert code == 0
    messages = [r.getMessage() for r in caplog.records if r.name == "ottochain"]
    assert messages == [f"tangles: 5 rows to {tmp_path / 'out.csv'}"]


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(ottochain.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); "
         "import ottochain, ottochain.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))", src],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_otto_sweep_logs_its_level_map_counts(tmp_path, monkeypatch, caplog):
    # the README sweep at DEBUG: one line for its level map, which solves
    # the 22 fields once each and bisects no step
    monkeypatch.setenv("OTTO_LOG", "DEBUG")
    caplog.set_level(logging.DEBUG, logger="ottochain")
    code, _ = run_cli(["otto", "--t-hot", "30", "--t-cold", "10", "--e-field-low",
                       "3.5", "--sweep", "e-field:3.5:14:22"], tmp_path)
    assert code == 0
    message, = [r.getMessage() for r in caplog.records
                if r.name == "ottochain" and r.levelno == logging.DEBUG]
    assert message.startswith("level map from e_field=3.5 over 23 fields: 22 fields "
                              "solved, 0 bisections, 0 exact crossings, worst in-block "
                              "overlap ")


def test_quantum_cycles_load_no_scipy():
    # scipy is a test dependency only: a quantum sweep, the n=6 zero-field
    # cycle, whose level map follows the exact crossing at p=2.0, and a
    # quantum size scaling run without it
    src = os.path.dirname(os.path.dirname(ottochain.__file__))
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import numpy as np\n"
        "from ottochain import (ChainParams, CycleMode, CycleSpec, efficiency_sweep,\n"
        "                       run_cycle, size_scaling)\n"
        "ring = ChainParams(6, 1.0, -1.0, 1.0, 0.0)\n"
        "quantum = CycleMode.QUANTUM\n"
        "efficiency_sweep(CycleSpec(ring, 30.0, 10.0, 14.0, 3.5, quantum),\n"
        "                 np.linspace(3.5, 14.0, 22))\n"
        "run_cycle(CycleSpec(ring, 30.0, 10.0, 10.0, 0.0, quantum))\n"
        "size_scaling(CycleSpec(ring, 30.0, 10.0, 10.0, 3.5, quantum), range(3, 9))\n"
        "print('scipy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_tangles_temperature_sweep_diagonalizes_once(tmp_path, monkeypatch):
    from ottochain import cli
    from ottochain.correlations import (chirality_expectation, concurrence,
                                        density_matrix, one_tangle,
                                        partial_trace)
    from ottochain.model import ChainParams, build_chirality_operator
    from ottochain.spectra import diagonalize_params
    from ottochain.thermal import gibbs

    calls = []

    def counting(params):
        calls.append(params)
        return diagonalize_params(params)

    monkeypatch.setattr(cli, "diagonalize_params", counting)
    code, text = run_cli(["tangles", "--n", "4", "--e-field", "20",
                          "--sweep", "t:2:60:30"], tmp_path)
    assert code == 0
    assert len(calls) == 1
    _, rows = parse_csv(text)
    assert len(rows) == 30
    # each row as a per-temperature diagonalization computes it
    params = ChainParams(4, 1.0, -1.0, 1.0, 20.0)
    k = build_chirality_operator(4)
    for row, t in zip(rows, np.linspace(2, 60, 30)):
        rho = density_matrix(gibbs(diagonalize_params(params), float(t)))
        c1, c2 = (concurrence(partial_trace(rho, [0, r])) for r in (1, 2))
        expected = [t, one_tangle(rho), 2 * c1 * c1 + c2 * c2, c1, c2,
                    chirality_expectation(rho, k)]
        assert [float(x) for x in row] == pytest.approx(expected, rel=1e-12,
                                                        abs=1e-14)


def test_susceptibility_temperature_sweep_diagonalizes_once(tmp_path, monkeypatch):
    from ottochain import cli
    from ottochain.model import ChainParams
    from ottochain.response import FieldTag, susceptibility
    from ottochain.spectra import diagonalize_params

    calls = []

    def counting(params):
        calls.append(params)
        return diagonalize_params(params)

    monkeypatch.setattr(cli, "diagonalize_params", counting)
    code, text = run_cli(["susceptibility", "--n", "4", "--e-field", "2",
                          "--sweep", "t:2:60:30"], tmp_path)
    assert code == 0
    assert len(calls) == 1
    _, rows = parse_csv(text)
    assert len(rows) == 30
    # each row as per-temperature susceptibility calls compute it
    params = ChainParams(4, 1.0, -1.0, 1.0, 2.0)
    for row, t in zip(rows, np.linspace(2, 60, 30)):
        expected = [t, susceptibility(params, FieldTag.MAGNETIC, float(t)),
                    susceptibility(params, FieldTag.ELECTRIC, float(t))]
        assert [float(x) for x in row] == pytest.approx(expected, rel=1e-12,
                                                        abs=1e-14)


def test_tangles_chirality_zero_without_field(tmp_path):
    code, text = run_cli(
        ["tangles", "--n", "4", "--e-field", "0", "--sweep", "t:5:15:5"],
        tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    chi = [abs(float(r[header.index("chirality")])) for r in rows]
    assert max(chi) <= 1e-10


def test_tangles_one_tangle_saturates(tmp_path):
    code, text = run_cli(
        ["tangles", "--n", "4", "--e-field", "1", "--sweep",
         "t:10000:10000:1"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert float(rows[0][header.index("tau1")]) == pytest.approx(1.0, abs=1e-3)


def test_susceptibility_header_and_values(tmp_path):
    code, text = run_cli(
        ["susceptibility", "--n", "4", "--e-field", "10",
         "--sweep", "t:10:30:3"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["t", "chi_b", "chi_e"]
    assert len(rows) == 3
    assert all(float(r[1]) > 0 for r in rows)


def test_otto_sweep_table(tmp_path):
    code, text = run_cli(
        ["otto", "--n", "4", "--e-field-low", "3.5", "--t-hot", "30",
         "--t-cold", "10", "--sweep", "e-field:3.5:14:4"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert header[:4] == ["e_field", "ratio", "eta_quantum", "eta_thermo"]
    carnot = [float(r[header.index("carnot")]) for r in rows]
    assert carnot == pytest.approx([2.0 / 3.0] * len(rows), abs=1e-12)
    first = rows[0]
    assert float(first[header.index("eta_thermo")]) == pytest.approx(0.0, abs=1e-12)


def test_otto_size_scaling_table(tmp_path):
    code, text = run_cli(
        ["otto", "--n", "4", "--e-field", "10", "--e-field-low", "3.5",
         "--sweep", "n:3:6:4"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["n", "eta", "carnot"]
    table = {int(r[0]): float(r[1]) for r in rows}
    assert table[3] > table[4]


def test_semiclassical_entropy_grid(tmp_path):
    code, text = run_cli(
        ["semiclassical", "--e-field", "0", "--sweep", "t:1e6:1e6:1"],
        tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert float(rows[0][header.index("s_sc")]) == pytest.approx(
        np.log(16.0), abs=1e-5)
    assert rows[0][header.index("valid")] == "1"


def test_semiclassical_validity_flag(tmp_path):
    code, text = run_cli(
        ["semiclassical", "--e-field", "5", "--sweep", "t:1:1:1"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert float(rows[0][header.index("s_sc")]) < 0.0
    assert rows[0][header.index("valid")] == "0"


def test_semiclassical_efficiency_row(tmp_path):
    code, text = run_cli(
        ["semiclassical", "--e-field-low", "0.5", "--t-cold", "100",
         "--t-hot", "120", "--sweep", "e-field:0.5:0.5:1"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert float(rows[0][header.index("eta_sc")]) == 0.0


def test_validate_exits_clean(tmp_path):
    code, text = run_cli(["validate"], tmp_path)
    assert code == 0
    header, rows = parse_csv(text)
    assert all(r[header.index("passed")] == "1" for r in rows)


def test_json_format(tmp_path):
    code, text = run_cli(
        ["spectrum", "--n", "4", "--format", "json"], tmp_path, "out.json")
    assert code == 0
    payload = json.loads(text)
    assert payload["meta"]["command"] == "spectrum"
    assert len(payload["rows"]) == 16


def test_output_deterministic(tmp_path):
    args = ["tangles", "--n", "4", "--e-field", "2", "--sweep", "t:5:15:6"]
    _, text1 = run_cli(args, tmp_path, "a.csv")
    _, text2 = run_cli(args, tmp_path, "b.csv")
    assert text1 == text2


def test_jobs_do_not_change_rows(tmp_path):
    # the worker pool must not affect values or row order (the metadata
    # echo legitimately differs in its jobs line)
    base = ["tangles", "--n", "4", "--e-field", "2", "--sweep", "t:5:15:6"]
    _, serial = run_cli(base, tmp_path, "s.csv")
    _, parallel = run_cli(base + ["--jobs", "4"], tmp_path, "p.csv")
    assert parse_csv(serial) == parse_csv(parallel)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(tmp_path, jobs):
    code, text = run_cli(["tangles", "--n", "4", "--jobs", jobs], tmp_path)
    assert code == 2
    assert text == ""


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 3, "e-field": 2.0}))
    code, text = run_cli(
        ["spectrum", "--config", str(cfg)], tmp_path)
    assert code == 0
    _, rows = parse_csv(text)
    assert len(rows) == 8          # n=3 from the config
    code, text = run_cli(
        ["spectrum", "--config", str(cfg), "--n", "4"], tmp_path, "o2.csv")
    _, rows = parse_csv(text)
    assert len(rows) == 16         # flag overrides config


@pytest.mark.parametrize("sweep", ["t:1:inf:3", "t:1:5:0"])
def test_config_sweep_error_is_a_parameter_error(tmp_path, capsys, sweep):
    # these died with a traceback from argparse.ArgumentTypeError
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"sweep": sweep}))
    code, text = run_cli(["tangles", "--config", str(cfg)], tmp_path)
    assert code == 2
    assert text == ""
    assert "parameter error" in capsys.readouterr().err


def test_parameter_error_exit_code(tmp_path):
    code = main(["spectrum", "--n", "20", "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("flags", [
    ["otto", "--sweep", "e-field:3.5:nan:3"],
    ["otto", "--sweep", "e-field:3.5:inf:3"],
    ["otto", "--e-field-low", "nan", "--sweep", "e-field:3.5:8:3"],
    ["tangles", "--sweep", "t:1:inf:3"],
    ["susceptibility", "--sweep", "t:1:inf:3"],
    ["susceptibility", "--sweep", "t:-inf:1:3"],
])
def test_otto_non_finite_field_is_a_parameter_error(tmp_path, capsys, flags):
    # these exited 4 with "numeric failure: Eigenvalues did not converge",
    # or 2 after numpy's RuntimeWarning from an infinite sweep bound; a
    # sweep bound is rejected by argparse, which exits 2 itself
    try:
        code, text = run_cli(flags[:1] + ["--n", "4"] + flags[1:], tmp_path)
    except SystemExit as exc:
        code, text = exc.code, ""
    err = capsys.readouterr().err
    assert code == 2
    assert text == ""
    assert "parameter error" in err or "sweep bounds must be finite" in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("sweep", ["n:1e30:1e30:1", "n:3.4:3.6:1", "n:1:4:4", "n:4:13:2"])
def test_otto_ring_size_sweep_bounds_are_a_parameter_error(tmp_path, capsys, sweep):
    # n:1e30:1e30:1 warned about an invalid cast and then rejected
    # n = -9223372036854775808; n:3.4:3.6:1 ran n = 3
    with pytest.raises(SystemExit) as exc:
        run_cli(["otto", "--n", "4", "--sweep", sweep], tmp_path)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert not (tmp_path / "out.csv").exists()
    assert "ring-size sweep bounds must be integers" in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("jobs, count, workers", [
    (100000, 40, 8), (100000, 3, 3), (2, 40, 2), (100000, 1, None), (1, 40, None)])
def test_jobs_pool_is_bounded(monkeypatch, jobs, count, workers):
    # --jobs 100000 started one thread per pending row, up to 100000
    import concurrent.futures
    from ottochain import cli

    sizes = []

    class Inline:
        """Records the pool size and maps without starting a thread."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, values):
            return map(fn, values)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Inline)
    monkeypatch.setattr(cli, "_cpus", lambda: 8)
    values = list(range(count))
    assert cli._map_rows(lambda v: v * v, values, jobs) == [v * v for v in values]
    assert sizes == ([] if workers is None else [workers])


@pytest.mark.parametrize("flags", [
    ["semiclassical", "--t-hot", "inf"],
    ["susceptibility", "--t", "inf"],
    ["tangles", "--t", "inf"],
    ["otto", "--t-hot", "inf"],
    ["otto", "--t-hot", "inf", "--sweep", "n:4:6:2"],
])
def test_infinite_temperature_is_a_parameter_error(tmp_path, capsys, flags):
    # these printed eta_sc = nan, the row inf,0,0 and rows with Carnot 1
    code, text = run_cli(flags, tmp_path)
    assert code == 2
    assert text == ""
    assert "parameter error" in capsys.readouterr().err


def test_overflow_is_a_numeric_failure(tmp_path, capsys):
    # t ** 2 in entropy_sc overflows; this died with a traceback
    code, text = run_cli(["semiclassical", "--sweep", "t:1e308:1e308:1"], tmp_path)
    assert code == 4
    assert text == ""
    assert "numeric failure" in capsys.readouterr().err


def test_seventeen_digit_roundtrip(tmp_path):
    _, text = run_cli(["spectrum", "--n", "4", "--e-field", "1"], tmp_path)
    _, rows = parse_csv(text)
    value = float(rows[5][2])
    assert f"{value:.17g}" == rows[5][2]
