"""The ``table`` subcommand: condense a summary.csv into the comparison table."""
from __future__ import annotations

import csv
from pathlib import Path

from .cli import SCHEDULE_TAG, SUMMARY_COLUMNS
from .errors import ConfigError

MODE_ORDER = {"sequential": 0, "sync": 1, "async": 2}

TABLE_COLUMNS = [
    "p", "mode", "schedule", "iterations", "model_cost", "fitted_overhead",
    "error_vs_oracle",
]


def emit_table(summary_path: str | Path, out_path: str | Path) -> None:
    """Condense a summary.csv into the short comparison table; a summary
    that cannot be read, lacks a column or holds a malformed row raises
    ConfigError naming the file."""
    try:
        with open(summary_path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read summary '{summary_path}': {exc}") from exc
    except (ValueError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
        raise ConfigError(f"summary '{summary_path}' is not a UTF-8 CSV file: {exc}") from exc
    for col in SUMMARY_COLUMNS:
        if rows and col not in rows[0]:
            raise ConfigError(f"summary '{summary_path}' lacks column '{col}'")

    def sort_key(row):
        return (
            int(row["p"]),
            MODE_ORDER.get(row["mode"], 99),
            row["policy"],
            int(row["seed"]) if row["seed"] else -1,
            int(row["delay_bound"]) if row["delay_bound"] else -1,
        )

    out_rows = []
    try:
        for row in sorted(rows, key=sort_key):
            fitted = row["fitted_overhead"]
            out_rows.append({
                "p": row["p"],
                "mode": row["mode"],
                "schedule": SCHEDULE_TAG.format(**row) if row["mode"] == "async" else "-",
                "iterations": row["iterations"] or "-",
                "model_cost": f"{float(row['model_cost']):.6g}",
                "fitted_overhead": f"{float(fitted):.6g}" if fitted else "-",
                "error_vs_oracle": f"{float(row['error_vs_oracle']):.2E}",
            })
    # a short row reads None (TypeError); a value such as p = "abc" (ValueError)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"summary '{summary_path}' has a malformed row: {exc}") from exc
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TABLE_COLUMNS)
        writer.writeheader()
        writer.writerows(out_rows)
