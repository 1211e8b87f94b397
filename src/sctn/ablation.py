"""Ablation grid: neighbour counts x channel-attention on/off.

Each cell runs the recipe of `sctn train` followed by `sctn evaluate`: it
retargets the train, validation and test splits to its neighbour count,
trains fresh weights on the train split, keeps the epoch with the lowest
validation loss, and scores the held-out test split. A failing cell records
its error and the remaining cells still run.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from . import data as data_mod
from .metrics import evaluate
from .model import ModelWeights
from .optim import train

# every neighbour count is run with channel attention on, then off
SE_TOGGLES = (True, False)


@dataclass
class AblationCell:
    neighbors: int
    se_enabled: bool
    report: object = None     # MetricsReport on success
    error: str = ""

    @property
    def ok(self):
        return self.report is not None


def ablate(split, base, neighbor_counts, epochs, batch_size, lr):
    """Run every (neighbour count x SE toggle) cell on a DatasetSplit; base
    gives the model keys and the seed. Returns the cells in grid order."""
    cells = []
    for n in neighbor_counts:
        for se_on in SE_TOGGLES:
            cell = AblationCell(neighbors=n, se_enabled=se_on)
            try:  # a bad count or cell fails its own cells, not the grid
                train_set, val_set, test_set = (
                    [data_mod.retarget_neighbors(s, n) for s in part]
                    for part in (split.train, split.validation, split.test))
                cfg = replace(base, n_agents=n, se_enabled=se_on)
                weights = ModelWeights(cfg)
                result = train(train_set, val_set, weights, cfg, epochs=epochs,
                               batch_size=batch_size, seed=cfg.seed, lr=lr)
                weights.load_state_dict(result.best_state)
                cell.report = evaluate(weights, test_set, cfg)
            except Exception as exc:
                cell.error = f"{type(exc).__name__}: {exc}"
            cells.append(cell)
    return cells


def grid_csv(cells):
    """Table-shaped summary plus per-cell deltas against the SE-off twin."""
    lines = ["neighbors,se,horizon_s,ade_m,fde_m,rmse_m,ade_delta_vs_no_se"]
    off_rows = {c.neighbors: c.report.rows for c in cells if c.ok and not c.se_enabled}
    for cell in cells:
        prefix = f"{cell.neighbors},{'on' if cell.se_enabled else 'off'}"
        if not cell.ok:
            lines.append(f"{prefix},error,,,,{cell.error}")
            continue
        rows = cell.report.rows
        twin_rows = off_rows.get(cell.neighbors) if cell.se_enabled else None
        deltas = ([f"{row['ade'] - twin['ade']:+.6f}" for row, twin in zip(rows, twin_rows)]
                  if twin_rows else [""] * len(rows))
        for row, delta in zip(rows, deltas):
            lines.append(f"{prefix},{row['horizon_s']},{row['ade']:.6f},{row['fde']:.6f},"
                         f"{row['rmse']:.6f},{delta}")
    return "\n".join(lines) + "\n"
