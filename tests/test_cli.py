import hashlib
import inspect
import json
import subprocess
import sys

import pytest

from egta import cli, experiments
from egta.cli import build_parser, main
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
    # with the default --eps 0 an unbounded schedule would never stop, and
    # --eps nan is refused by the real-number rule before that
    game_path = tmp_path / "game.json"
    main(
        ["gen-game", "--family", "rg", "--players", "2", "--k", "2", "--seed", "4",
         "--out", str(game_path)]
    )
    for eps, message in (
        ([], "positive eps_threshold"),
        (["--eps", "nan"], "eps_threshold must be nonnegative"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "egta.cli", "psp", "--game", str(game_path), "--infinite",
             *eps],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


def test_library_errors_are_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1]")
    good = tmp_path / "game.json"
    main(["gen-game", "--family", "rg", "--players", "2", "--k", "2", "--out", str(good)])
    congestion = tmp_path / "rc.json"
    main(["gen-game", "--family", "rc", "--players", "2", "--k", "2", "--out", str(congestion)])
    strings = tmp_path / "strings.json"
    strings.write_text('{"players": 1, "strategies": [2], "utilities": ["1", "2.5"]}')
    for args, message in (
        (["gs", "--game", str(bad)], "must be an object"),
        (["gs", "--game", str(strings)], "utilities must be a real number, not str"),
        (["gs", "--game", str(tmp_path / "missing.json")], "No such file"),
        (["psp", "--game", str(good), "--delta", "2"], "failure probability"),
        (["gs", "--game", str(good), "--noise-d", "nan"], "noise width d must be finite"),
        (["gs", "--game", str(good), "--noise-d", "inf"], "noise width d must be finite"),
        # each sample is finite, but a sum of 1000 is not
        (["gs", "--game", str(congestion), "--noise-d", "1e308"], "sums of 1000 samples overflow the float range"),
        (["gen-game", "--family", "rg", "--players", "2", "--k", "2", "--u0", "inf"],
         "u0 must be positive and finite"),
        # a 40-player game would need 320 TiB: numpy refuses at once, allocating nothing
        (["gen-game", "--family", "rg", "--players", "40", "--k", "2"], "Unable to allocate"),
        # 2^64 profiles, which an int64 product wraps to an empty game
        (["gen-game", "--family", "rg", "--players", "2", "--k", "4294967296"], "Maximum allowed dimension"),
        (["eps-vs-samples", "--reps", "0"], "reps must be at least 1"),
        (["eps-vs-samples", "--reps", "1", "--d-grid", "1e306", "--m-grid", "10"], "d_values entries must keep"),
        (["success-rate", "--reps", "0"], "reps must be at least 1"),
        (["nash-frequency", "--reps", "0"], "runs must be at least 1"),
        (["gs-vs-psp", "--reps", "0", "--out", str(tmp_path / "e.csv"), "--plot"],
         "reps must be at least 1"),
        (["bound-compare-factored", "--players-max", "0", "--out", str(tmp_path / "b.csv"),
          "--plot"], "players_max must be at least 1"),
        (["bound-compare-vns", "--players-max", "-3"], "players_max must be at least 1"),
        # the library, not the parser, checks the family and the bound
        (["gen-game", "--family", "xx", "--players", "2", "--k", "2"], "unknown game family 'xx'"),
        (["gs", "--game", str(good), "--bound", "bogus"], "'bogus' is not a valid BoundType"),
        # a finite schedule refuses a NaN threshold as an unbounded one does
        (["psp", "--game", str(good), "--eps", "nan", "--budget", "700"],
         "eps_threshold must be nonnegative"),
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_plot_without_out_refused_before_running(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["eps-vs-samples", "--reps", "2", "--m-grid", "100", "--plot"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--plot needs --out" in captured.err


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


def test_help_documents_schema(capsys):
    with pytest.raises(SystemExit):
        main(["success-rate", "--help"])
    assert "CSV columns: family, bound, delta, rho, success_rate" in capsys.readouterr().out


# every experiment subcommand's {flag: dest}; each dest is a keyword of the
# driver and takes the driver's default
EXPERIMENT_FLAGS = {
    "eps-vs-samples": (experiments.run_eps_vs_samples, {
        "--seed": "seed", "--reps": "reps", "--d-grid": "d_values",
        "--m-grid": "m_values", "--delta": "delta",
    }),
    "nash-frequency": (experiments.run_nash_frequency, {
        "--seed": "seed", "--reps": "runs", "--m-grid": "m_values",
        "--noise-d": "d", "--delta": "delta",
    }),
    "success-rate": (experiments.run_success_rate, {
        "--seed": "seed", "--reps": "reps", "--delta-grid": "delta_grid",
        "--rho-grid": "rho_grid", "--noise-d": "d", "--m": "m",
    }),
    "gs-vs-psp": (experiments.run_gs_vs_psp, {
        "--seed": "seed", "--reps": "reps", "--players-grid": "players_values",
        "--k-grid": "k_values", "--noise-d": "d", "--delta": "delta",
        "--m0": "m0", "--budget": "budget",
    }),
    "bound-compare-factored": (experiments.run_bound_compare_factored, {
        "--players-max": "players_max", "--m": "m", "--delta": "delta",
    }),
    "bound-compare-vns": (experiments.run_bound_compare_vns, {
        "--players-max": "players_max", "--m": "m", "--delta": "delta",
        "--intervals": "intervals",
    }),
}


def test_experiment_flags_mirror_driver_signature(capsys):
    for name, (run, flags) in EXPERIMENT_FLAGS.items():
        options = vars(build_parser().parse_args([name]))
        for key in ("run", "lines", "plot", "out", "command"):
            del options[key]
        params = inspect.signature(run).parameters
        assert options == {key: p.default for key, p in params.items()}, name
        assert sorted(flags.values()) == sorted(options), name
        with pytest.raises(SystemExit):
            main([name, "--help"])
        text = capsys.readouterr().out
        for flag, dest in flags.items():
            assert f" {flag} {dest.upper()}" in text, (name, flag)


# the other subcommands' {flag: (dest, default)}, REQUIRED marking a flag
# without a default; each dest is a keyword of the subcommand's function
REQUIRED = inspect.Parameter.empty
COMMAND_FLAGS = {
    "ppa-demo": (experiments.run_ppa_demo, {}),
    "gen-game": (cli._gen_game, {
        "--family": ("family", REQUIRED), "--players": ("players", REQUIRED),
        "--k": ("k", REQUIRED), "--facilities": ("facilities", 5), "--alpha": ("alpha", 0.1),
        "--u0": ("u0", 10.0), "--seed": ("seed", 0), "--expand": ("dense", False),
    }),
    "gs": (cli._gs, {
        "--game": ("game", REQUIRED), "--noise-d": ("d", 0.0), "--delta": ("delta", 0.1),
        "--bound": ("bound", "hoeffding"), "--seed": ("seed", 0), "--m": ("m", 1000),
    }),
    "psp": (cli._psp, {
        "--game": ("game", REQUIRED), "--noise-d": ("d", 0.0), "--delta": ("delta", 0.1),
        "--bound": ("bound", "hoeffding"), "--seed": ("seed", 0), "--m0": ("m0", 100),
        "--budget": ("budget", 25500), "--infinite": ("infinite", False),
        "--mixed": ("mixed", False), "--eps": ("eps", 0.0),
    }),
}


def test_command_flags_mirror_function_signature(capsys):
    # gen-game, gs, psp and ppa-demo take their flags from their functions'
    # signatures too; the table pins those flags and defaults, a required
    # flag is typed by its annotation, and only the experiments have --plot
    for name, (run, flags) in COMMAND_FLAGS.items():
        params = inspect.signature(run, eval_str=True).parameters
        assert {dest: p.default for dest, p in params.items()} == dict(flags.values()), name
        required = [flag for flag, (_, default) in flags.items() if default is REQUIRED]
        given = [arg for flag in required for arg in (flag, "3")]
        options = vars(build_parser().parse_args([name, *given]))
        assert options.pop("run") is run and options.pop("lines") is None, name
        for key in ("plot", "out", "command"):
            del options[key]
        for flag in required:
            dest = flags[flag][0]
            assert options.pop(dest) == params[dest].annotation("3"), (name, flag)
        assert options == {dest: default for dest, default in flags.values() if default is not REQUIRED}
        for at in range(0, len(given), 2):  # leave out one required flag
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args([name, *given[:at], *given[at + 2:]])
            assert exit_info.value.code == 2, (name, given[at])
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([name, *given, "--plot"])
        assert exit_info.value.code == 2, name
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main([name, "--help"])
        text = capsys.readouterr().out
        for flag, (dest, default) in flags.items():
            shown = f" {flag}" if default is False else f" {flag} {dest.upper()}"
            assert shown in text, (name, flag)


# sha256 of every file the CLI writes at tiny sizes, frozen before main()
# became a dispatch table; "{dense}" and "{cg}" name game files made by
# gen-game. Each entry: (args, {output suffix: sha256}).
CLI_GOLDENS = {
    "gen-game-rg": (
        ["gen-game", "--family", "rg", "--players", "3", "--k", "3", "--seed", "1"],
        {"": "4886f40b015919ff9dbfe71aefcab17b4072392b58109fe469dea4c9409f1f3f"},
    ),
    "gen-game-rc": (
        ["gen-game", "--family", "rc", "--players", "3", "--k", "2", "--seed", "2"],
        {"": "a27be521cc36b8d9a232f77e2182757affcd4c1bbe618b8e7e567f9b60118bcc"},
    ),
    "gen-game-rc-expand": (
        ["gen-game", "--family", "rc", "--players", "3", "--k", "2", "--seed", "2", "--expand"],
        {"": "6b7e2322678e7561d796d86a5c19ef8d989fc9fd75f1afcfd0b5e0a52d377ade"},
    ),
    "gs-hoeffding-dense": (
        ["gs", "--game", "{dense}", "--noise-d", "1", "--m", "64", "--seed", "5"],
        {"": "df368488dc5328a8d9b96b4d507809872e493d196a202d1531e62b3f12e45d16"},
    ),
    "gs-1era-dense": (
        ["gs", "--game", "{dense}", "--noise-d", "1", "--m", "64", "--bound", "1era",
         "--seed", "5"],
        {"": "3547be3ef9581ccc81036fe4be24fd5cc8528f9c817a4a3bb6ebba1882adb8a0"},
    ),
    "gs-hoeffding-congestion": (
        ["gs", "--game", "{cg}", "--noise-d", "2", "--m", "50", "--seed", "3"],
        {"": "9191ee1d8793fd2f7533ba933d449631ca9c65a2913278ed430ce8f1dc27a12b"},
    ),
    "gs-1era-congestion": (
        ["gs", "--game", "{cg}", "--noise-d", "2", "--m", "50", "--bound", "1era",
         "--delta", "0.05", "--seed", "3"],
        {"": "4cb7abadc71bb1ab713afbf0f8aeb1d99dcd7a36cc106e845356b204b7fea4cc"},
    ),
    "psp-pure-finite": (
        ["psp", "--game", "{dense}", "--noise-d", "1", "--budget", "700", "--seed", "1"],
        {"": "290af3c4ae98e19559654ce2d308d75a48e682e3cbad4318a8455b62874b07d7"},
    ),
    "psp-mixed-1era-infinite": (
        ["psp", "--game", "{cg}", "--noise-d", "1", "--mixed", "--bound", "1era",
         "--infinite", "--eps", "1.5", "--seed", "2"],
        {"": "9bfcef5009aea5039315931b4d596b0f546714a05b53f2ee927cf822a6575758"},
    ),
    "ppa-demo": (
        ["ppa-demo"],
        {"": "5f2ded9c79af92100033bf57b7f12ea64963d432b5f21e8b26fb9c5782c29cb6"},
    ),
    "eps-vs-samples": (
        ["eps-vs-samples", "--reps", "3", "--d-grid", "2.0,5.0", "--m-grid", "100,200",
         "--seed", "7", "--plot"],
        {
            "": "4a1d2d3e65fc96f5d712213e8ee9ff347a8eda68af13389bf82ee52631f9dbfd",
            ".svg": "393c54006f6077ab1fc55024a0bc8c9084e2d791457b021423510d738032d0e3",
        },
    ),
    "nash-frequency": (
        ["nash-frequency", "--reps", "4", "--m-grid", "50,100", "--seed", "2", "--plot"],
        {
            "": "5456fb4107353076325615362448e8ae7cdb9853a6e8750ae40d3273c4027245",
            ".svg": "cdf81485ec6018b5ae7baedd2d475d378e6142a6349fbd50505b5c4f4bd2e4cd",
        },
    ),
    "success-rate": (
        ["success-rate", "--reps", "4", "--m", "100", "--delta-grid", "0.1,0.2",
         "--rho-grid", "1.0,0.75,0.5", "--seed", "2", "--plot"],
        {
            "": "4409e51a8ab46a0c8d6884cf96a13e456065479525a2809a36215f7e525ee390",
            ".svg": "9c7d971a2557c32ee2ab6c660b213d2f0a66db52a3e529b3e8bbb6d66d16a23a",
        },
    ),
    "gs-vs-psp": (
        ["gs-vs-psp", "--reps", "2", "--players-grid", "2,3", "--k-grid", "2,3",
         "--budget", "700", "--seed", "3", "--plot"],
        {
            "": "0c4d9f60685549c3439e771997cf9aa3aebf86c53d1ba20fd918dbe70b9df1f1",
            ".svg": "85e5bd396e836f7c51277fe2bb4e1263682ae0cfbee0719d02c49f033399c9ae",
        },
    ),
    "bound-compare-factored": (
        ["bound-compare-factored", "--players-max", "12", "--m", "5000", "--plot"],
        {
            "": "5d24a611a40a8968746a8f0d5d47431561987945b81ec3263cbccd846ad2972d",
            ".svg": "882c71db0e6438574e885f86da2d937371c9eb8c23699840822e2b918c726ace",
        },
    ),
    "bound-compare-vns": (
        ["bound-compare-vns", "--players-max", "12", "--intervals", "4", "--plot"],
        {
            "": "9b721df536254a73db2ca629e8d00329303105620e8f1a49c02df7ebeffb9720",
            ".svg": "6bfc1c4a1dab0e8644126d2292bb9bef54573771a51f6ca9ec3008088f2eeaf5",
        },
    ),
}


@pytest.fixture(scope="module")
def game_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("games")
    paths = {"dense": root / "dense.json", "cg": root / "cg.json"}
    main(["gen-game", "--family", "rg", "--players", "2", "--k", "3", "--seed", "6",
          "--out", str(paths["dense"])])
    main(["gen-game", "--family", "rc", "--players", "3", "--k", "3", "--alpha", "0.5",
          "--seed", "9", "--out", str(paths["cg"])])
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("case", sorted(CLI_GOLDENS))
def test_cli_output_golden(case, game_files, tmp_path):
    args, expected = CLI_GOLDENS[case]
    out = tmp_path / "out"
    assert main([a.format(**game_files) for a in args] + ["--out", str(out)]) == 0
    digests = {
        suffix: hashlib.sha256((tmp_path / ("out" + suffix)).read_bytes()).hexdigest()
        for suffix in expected
    }
    assert digests == expected


def test_cli_stdout_golden(capsys):
    args = CLI_GOLDENS["eps-vs-samples"][0][:-1]
    assert main(args) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CLI_GOLDENS["eps-vs-samples"][1][""]
