"""The on-disk format of every artifact the pipeline writes.

Artifacts are compared byte for byte between reruns, so their format lives
in one place: JSON with sorted keys, two-space indent and a closing newline,
and CSV in the csv module's default dialect (lines end in \\r\\n) with every
float cell written as its shortest round-tripping repr.
"""

from __future__ import annotations

import csv
import json


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """One header row, then one line per row; a float cell (numpy floats
    included) is written as repr(float(v)), any other cell as given."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v
                          for v in row] for row in rows)
