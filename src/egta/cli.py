"""Command-line harness: game generation, one-off learning runs, and the
experiment suite, all deterministic under --seed (CSV output is
byte-identical across runs).

Each subcommand declares its driver (``run``) and, for experiments, a plot
(``lines``) and ``--plot``. Its flags are the driver's keywords, so each
setting is declared once and main() calls every driver the same way: a
keyword without a default is a required flag typed by its annotation, a bool
default is a switch, and any other default sets the flag's type. The library
checks values such as ``--bound`` and ``--family``."""

from __future__ import annotations

import argparse
import inspect
import sys

from . import _svg, experiments
from .algorithms import FailureSchedule, SamplingSchedule, gs, psp
from .games import IndexSet, game_from_json, game_to_json
from .simulators import (
    congestion_from_json,
    congestion_to_json,
    expand,
    gen_rc,
    gen_rg,
    noisy_sim,
)

# flags whose name is not the keyword with dashes
_FLAGS = {
    "d": "--noise-d",
    "runs": "--reps",
    "dense": "--expand",
    "d_values": "--d-grid",
    "m_values": "--m-grid",
    "players_values": "--players-grid",
    "k_values": "--k-grid",
}
_HELP = {
    "seed": "master seed",
    "reps": "replications",
    "runs": "replications",
    "d": "noise width",
    "delta": "failure probability",
    "m": "samples per run",
    "budget": "total conditions per run",
    "bound": "hoeffding or 1era",
    "family": "rg (uniform payoffs, dense) or rc (congestion)",
    "dense": "write rc games in dense form",
    "game": "game JSON (dense or congestion)",
    "infinite": "unbounded doubling schedule",
    "mixed": "prune toward mixed equilibria",
    "eps": "early-termination radius",
}


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as handle:
            handle.write(text)


def _lines(x, ys, keep=None, **style):
    """Plot spec for an experiment table: one line per {label: y column},
    where each label is a format string over the row's columns, so rows
    whose labels agree share a line. keep(row, options) filters rows; style
    goes to the SVG writer."""

    def plot(table: experiments.Table, options: dict) -> dict:
        series: dict[str, tuple[list, list]] = {}
        for values in table.rows:
            row = dict(zip(table.columns, values))
            if keep is None or keep(row, options):
                for label, y in ys.items():
                    xs, points = series.setdefault(label.format(**row), ([], []))
                    xs.append(row[x])
                    points.append(row[y])
        return dict(style, series=series)

    return plot


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _load_base_game(path: str):
    with open(path) as handle:
        text = handle.read()
    if '"facilities"' in text:
        return expand(congestion_from_json(text))
    return game_from_json(text)


def _gen_game(family: str, players: int, k: int, facilities: int = 5, alpha: float = 0.1,
              u0: float = 10.0, seed: int = 0, dense: bool = False) -> str:
    if family == "rg":
        return game_to_json(gen_rg(players, k, u0=u0, seed=seed)) + "\n"
    if family != "rc":
        raise ValueError(f"unknown game family {family!r}: rg or rc")
    cg = gen_rc(players, facilities, k, alpha=alpha, seed=seed)
    return (game_to_json(expand(cg)) if dense else congestion_to_json(cg)) + "\n"


def _gs(game: str, d: float = 0.0, delta: float = 0.1, bound: str = "hoeffding",
        seed: int = 0, m: int = 1000) -> str:
    sim = noisy_sim(_load_base_game(game), d)
    return gs(sim, IndexSet.full(sim.strategy_counts), m, delta, sim.range_c, bound, seed=seed).to_json() + "\n"


def _psp(game: str, d: float = 0.0, delta: float = 0.1, bound: str = "hoeffding",
         seed: int = 0, m0: int = 100, budget: int = 25500, infinite: bool = False,
         mixed: bool = False, eps: float = 0.0) -> str:
    sim = noisy_sim(_load_base_game(game), d)
    if infinite:
        sampling = SamplingSchedule.infinite_doubling(m0)
        failure = FailureSchedule.geometric_halving(delta)
    else:
        sampling = SamplingSchedule.finite_doubling(m0, budget)
        failure = FailureSchedule.uniform_split(delta, sampling.length)
    return psp(sim, sampling, failure, c=sim.range_c, bound=bound, pure=not mixed,
               eps_threshold=eps, seed=seed).to_json() + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egta",
        description="Learn uniform approximations and pure equilibria of "
        "simulation-based games from noisy samples.",
    )
    parser.set_defaults(plot=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, lines=None, **text):
        p = sub.add_parser(name, **text)
        p.set_defaults(run=run, lines=lines)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if lines is not None:
            p.add_argument("--plot", action="store_true", help="also write <out>.svg")
        for key, param in inspect.signature(run, eval_str=True).parameters.items():
            flag = _FLAGS.get(key, "--" + key.replace("_", "-"))
            default, about = param.default, _HELP.get(key)
            if default is param.empty:
                p.add_argument(flag, dest=key, type=param.annotation, required=True, help=about)
            elif isinstance(default, bool):
                p.add_argument(flag, dest=key, action="store_true", help=about)
            else:
                flag_type, shown = type(default), default
                if isinstance(default, tuple):
                    flag_type = _int_list if all(type(x) is int for x in default) else _float_list
                    shown = ",".join(map(str, default))
                p.add_argument(flag, dest=key, type=flag_type, default=default,
                               help=f"{about or ''} (default {shown})".lstrip())

    command(
        "eps-vs-samples", experiments.run_eps_vs_samples,
        _lines("m", {"d={d}": "mean_epsilon"}, title="error radius vs samples",
               xlabel="m", ylabel="epsilon", logx=True, logy=True),
        help="error radius vs sample count on random congestion games",
        description="CSV columns: d, m, mean_epsilon, ci_low, ci_high. "
        "One row per (noise width, sample count); 95%% normal CIs over --reps games.",
    )
    command(
        "nash-frequency", experiments.run_nash_frequency,
        _lines("profile", {"m={m}": "frequency"},
               title="profiles flagged as approximate equilibria",
               xlabel="profile", ylabel="frequency"),
        help="how often profiles get flagged as approximate equilibria",
        description="CSV columns: m, profile, frequency. Zero-frequency "
        "profiles are omitted. Metadata records the fixture and its true equilibrium.",
    )
    command(
        "success-rate", experiments.run_success_rate,
        _lines("delta", {"{family}/{bound}/rho={rho}": "success_rate"},
               keep=lambda row, options: row["rho"] in (options["rho_grid"][0],
                                                        options["rho_grid"][-1]),
               title="empirical success rate", xlabel="delta", ylabel="success rate"),
        help="rate at which the two-sided equilibrium containment holds",
        description="CSV columns: family, bound, delta, rho, success_rate, "
        "ci_low, ci_high. rho contracts the returned radius to probe slack.",
    )
    command(
        "gs-vs-psp", experiments.run_gs_vs_psp,
        _lines("game_size", {"psp": "eps_psp", "gs": "eps_gs"},
               title="progressive vs one-shot sampling", xlabel="game size",
               ylabel="epsilon", logy=True),
        help="progressive vs one-shot sampling at equal query budgets",
        description="CSV columns: players, k, game_size, rep, eps_psp, eps_gs, "
        "cost_psp, m_gs. m_gs = cost_psp / game_size is the per-utility budget "
        "granted to the one-shot baseline.",
    )
    bound_lines = {"hoeffding": "hoeffding", "rademacher": "rademacher"}
    command(
        "bound-compare-factored", experiments.run_bound_compare_factored,
        _lines("players", bound_lines, title="bounds for factored noise",
               xlabel="players", ylabel="radius"),
        help="Hoeffding vs factored-noise Rademacher radii by player count",
        description="CSV columns: players, hoeffding, rademacher. Metadata "
        "records the first crossover player count.",
    )
    command(
        "bound-compare-vns", experiments.run_bound_compare_vns,
        _lines("players", bound_lines, title="bounds for variable-scale noise",
               xlabel="players", ylabel="radius"),
        help="Hoeffding vs variable-noise-scale Rademacher radii",
        description="CSV columns: players, hoeffding, rademacher.",
    )

    command("ppa-demo", experiments.run_ppa_demo,
            help="equilibria, costs, and pure price of anarchy of the canonical instance")
    command("gen-game", _gen_game, help="generate a game and write its JSON")
    command("gs", _gs, help="one global-sampling run on a game file")
    command("psp", _psp, help="one progressive-sampling run on a game file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    options = vars(parser.parse_args(argv))
    run, lines, plot, out, _ = (options.pop(key) for key in ("run", "lines", "plot", "out", "command"))
    if plot and out is None:
        parser.error("--plot needs --out to name the .svg file")
    try:
        result = run(**options)
        if isinstance(result, experiments.Table):
            _write(result.to_csv(), out)
            if plot:
                _svg.write_line_plot(out + ".svg", **lines(result, options))
        else:
            _write(result, out)
    except (OSError, ValueError, MemoryError) as error:
        parser.error(str(error))
    return 0


if __name__ == "__main__":
    sys.exit(main())
