import json
import subprocess
import sys

import pytest

from egta.cli import main
from egta.games import game_from_json
from egta.simulators import congestion_from_json


def run_cli(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    assert code == 0
    return out.read_bytes()


def test_gen_game_deterministic_bytes(tmp_path):
    args = ["gen-game", "--family", "rg", "--players", "3", "--k", "3", "--seed", "1"]
    a = run_cli(args, tmp_path, "a.json")
    b = run_cli(args, tmp_path, "b.json")
    assert a == b
    game = game_from_json(a.decode())
    assert game.strategy_counts == (3, 3, 3)


def test_gen_game_rc_and_expand(tmp_path):
    raw = run_cli(
        ["gen-game", "--family", "rc", "--players", "3", "--k", "2", "--seed", "2"],
        tmp_path,
        "rc.json",
    )
    cg = congestion_from_json(raw.decode())
    assert cg.num_players == 3
    dense = run_cli(
        ["gen-game", "--family", "rc", "--players", "3", "--k", "2", "--seed", "2", "--expand"],
        tmp_path,
        "dense.json",
    )
    game = game_from_json(dense.decode())
    assert game.num_players == 3


def test_gs_zero_noise_returns_base(tmp_path):
    game_path = tmp_path / "game.json"
    main(
        ["gen-game", "--family", "rc", "--players", "3", "--k", "2", "--seed", "3",
         "--expand", "--out", str(game_path)]
    )
    base = game_from_json(game_path.read_text())
    out = run_cli(
        ["gs", "--game", str(game_path), "--noise-d", "0", "--m", "64",
         "--bound", "hoeffding", "--seed", "5"],
        tmp_path,
        "gs.json",
    )
    payload = json.loads(out)
    # integer-valued congestion utilities average back exactly
    assert payload["utilities"] == base.utilities.reshape(-1).tolist()
    assert payload["epsilon"] > 0


def test_psp_huge_threshold_stops_immediately(tmp_path):
    game_path = tmp_path / "game.json"
    main(
        ["gen-game", "--family", "rg", "--players", "2", "--k", "2", "--seed", "4",
         "--out", str(game_path)]
    )
    out = run_cli(
        ["psp", "--game", str(game_path), "--noise-d", "1", "--eps", "99",
         "--seed", "1"],
        tmp_path,
        "psp.json",
    )
    payload = json.loads(out)
    assert len(payload["trace"]) == 1
    assert "pure_equilibria" in payload


def test_psp_infinite_schedule_with_zero_eps_refused(tmp_path):
    # with the default --eps 0 an unbounded schedule would never stop
    game_path = tmp_path / "game.json"
    main(
        ["gen-game", "--family", "rg", "--players", "2", "--k", "2", "--seed", "4",
         "--out", str(game_path)]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "egta.cli", "psp", "--game", str(game_path), "--infinite"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "positive eps_threshold" in proc.stderr


def test_psp_mixed_mode_writes_restriction(tmp_path):
    game_path = tmp_path / "game.json"
    main(
        ["gen-game", "--family", "rg", "--players", "2", "--k", "3", "--seed", "6",
         "--out", str(game_path)]
    )
    out = run_cli(
        ["psp", "--game", str(game_path), "--noise-d", "1", "--mixed",
         "--budget", "700", "--seed", "2"],
        tmp_path,
        "psp.json",
    )
    payload = json.loads(out)
    assert "rationalizable" in payload
    assert "pure_equilibria" not in payload


def test_experiment_csv_deterministic(tmp_path):
    args = [
        "eps-vs-samples", "--reps", "3", "--d-grid", "2.0",
        "--m-grid", "100,200", "--seed", "7",
    ]
    a = run_cli(args, tmp_path, "a.csv")
    b = run_cli(args, tmp_path, "b.csv")
    assert a == b
    text = a.decode()
    assert "\r" not in text
    header = [l for l in text.split("\n") if not l.startswith("#")][0]
    assert header == "d,m,mean_epsilon,ci_low,ci_high"


def test_plot_flag_writes_svg(tmp_path):
    out = tmp_path / "curve.csv"
    code = main(
        ["bound-compare-factored", "--players-max", "10", "--out", str(out), "--plot"]
    )
    assert code == 0
    svg = (tmp_path / "curve.csv.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_gs_accepts_congestion_json_directly(tmp_path):
    game_path = tmp_path / "cg.json"
    main(
        ["gen-game", "--family", "rc", "--players", "3", "--k", "2", "--seed", "8",
         "--out", str(game_path)]
    )
    out = run_cli(
        ["gs", "--game", str(game_path), "--noise-d", "1", "--m", "50", "--seed", "1"],
        tmp_path,
        "gs.json",
    )
    payload = json.loads(out)
    assert payload["m"] == 50 and payload["epsilon"] > 0


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "egta.cli", "ppa-demo"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert "Pure price of anarchy: 2.5" in proc.stdout


def test_help_documents_schema():
    with pytest.raises(SystemExit):
        main(["success-rate", "--help"])
