"""Ablation grid: neighbour counts x channel-attention on/off.

Each cell retargets the dataset to its neighbour count, trains a fresh model
under the shared budget, and evaluates. A failing cell records its error and
the remaining cells still run.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import data as data_mod
from .metrics import evaluate
from .model import ModelWeights
from .optim import train

# every neighbour count is run with channel attention on, then off
SE_TOGGLES = (True, False)


@dataclass
class AblationConfig:
    neighbor_counts: list = field(default_factory=lambda: [5, 10, 15])
    epochs: int = 3
    batch_size: int = 16
    lr: float = 0.01
    seed: int = 0


@dataclass
class AblationCell:
    neighbors: int
    se_enabled: bool
    report: object = None     # MetricsReport on success
    error: str = ""

    @property
    def ok(self):
        return self.report is not None


def ablate(ablation_config, samples, base_model_config):
    """Run every (neighbour count x SE toggle) cell; returns list of cells."""
    cells = []
    for n in ablation_config.neighbor_counts:
        try:
            retargeted = [data_mod.retarget_neighbors(s, n) for s in samples]
        except Exception as exc:  # bad count fails its column, not the grid
            cells.extend(AblationCell(neighbors=n, se_enabled=se_on,
                                      error=f"{type(exc).__name__}: {exc}")
                         for se_on in SE_TOGGLES)
            continue
        for se_on in SE_TOGGLES:
            cell = AblationCell(neighbors=n, se_enabled=se_on)
            try:
                cfg = replace(base_model_config, n_agents=n, se_enabled=se_on,
                              seed=ablation_config.seed)
                weights = ModelWeights(cfg)
                train(retargeted, [], weights, cfg,
                      epochs=ablation_config.epochs,
                      batch_size=ablation_config.batch_size,
                      seed=ablation_config.seed, lr=ablation_config.lr)
                cell.report = evaluate(weights, retargeted, cfg)
            except Exception as exc:  # a bad cell must not abort its siblings
                cell.error = f"{type(exc).__name__}: {exc}"
            cells.append(cell)
    return cells


def grid_csv(cells):
    """Table-shaped summary plus per-cell deltas against the SE-off twin."""
    lines = ["neighbors,se,horizon_s,ade_m,fde_m,rmse_m,ade_delta_vs_no_se"]
    twins = {(c.neighbors, c.se_enabled): c for c in cells}
    for cell in cells:
        if not cell.ok:
            lines.append(f"{cell.neighbors},{'on' if cell.se_enabled else 'off'},"
                         f"error,,,,{cell.error}")
            continue
        twin = twins.get((cell.neighbors, False))
        for row in cell.report.rows:
            delta = ""
            if cell.se_enabled and twin is not None and twin.ok:
                twin_row = next(r for r in twin.report.rows
                                if r["horizon_s"] == row["horizon_s"])
                delta = f"{row['ade'] - twin_row['ade']:+.6f}"
            lines.append(f"{cell.neighbors},{'on' if cell.se_enabled else 'off'},"
                         f"{row['horizon_s']},{row['ade']:.6f},{row['fde']:.6f},"
                         f"{row['rmse']:.6f},{delta}")
    return "\n".join(lines) + "\n"
