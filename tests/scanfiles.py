"""Scan file writers for the tests: the formats ``madlo.dataset_io`` reads.

The library only reads scans; these write fixtures in the same formats, a
KITTI velodyne ``.bin`` or a PLY of doubles, ascii or binary.
"""
from __future__ import annotations

import numpy as np

from madlo.dataset_io import FLOAT_FORMAT
from madlo.geometry import PointCloud


def write_kitti_bin(path, cloud: PointCloud) -> None:
    """Write a cloud as packed float32 (x, y, z, intensity) records, with
    zero intensity."""
    rec = np.zeros((len(cloud), 4), dtype="<f4")
    rec[:, :3] = cloud.points
    rec.tofile(path)


def write_ply(path, cloud: PointCloud, binary=True) -> None:
    """Write x/y/z (and time when rel_times is present) as doubles."""
    names = ["x", "y", "z"] + (["time"] if cloud.rel_times is not None else [])
    header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0",
              f"element vertex {len(cloud)}"]
    header += [f"property double {name}" for name in names]
    header.append("end_header")
    table = np.zeros(len(cloud), dtype=np.dtype([(n, "<f8") for n in names]))
    table["x"], table["y"], table["z"] = cloud.points.T
    if cloud.rel_times is not None:
        table["time"] = cloud.rel_times
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            f.write(table.tobytes())
        else:
            rows = (" ".join(FLOAT_FORMAT % row[n] for n in names) for row in table)
            f.write(("\n".join(rows) + ("\n" if len(cloud) else "")).encode("ascii"))
