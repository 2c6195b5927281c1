"""Spatial-map recovery from a fitted dictionary and group concatenation."""

from __future__ import annotations

import numpy as np

from .types import CoefficientMatrix, DataMatrix, Dictionary, TaskTimeCourses


def pinv_spatial_maps(dictionary: Dictionary, x: DataMatrix) -> CoefficientMatrix:
    """Least-squares spatial maps ``pinv(D) @ X``.

    Requires a full-column-rank dictionary; near-collinear atoms make the
    maps meaningless, so rank deficiency is an error naming the columns
    involved in the near-null direction.
    """
    dv = dictionary.values
    if dv.shape[0] != x.n_times:
        raise ValueError("dictionary and data disagree on time samples")
    u, svals, vt = np.linalg.svd(dv, full_matrices=False)
    if svals[-1] <= 1e-10 * svals[0]:
        null_dir = np.abs(vt[-1])
        involved = np.flatnonzero(null_dir > 0.1 * null_dir.max())
        raise ValueError(
            f"dictionary is rank deficient; columns {involved.tolist()} are "
            "nearly dependent"
        )
    maps, *_ = np.linalg.lstsq(dv, x.values, rcond=None)
    return CoefficientMatrix(maps)


def zscore_threshold(spatial_map, z_min: float = 1.97):
    """Standardize a map and flag voxels at or above the threshold.

    Returns the z-scored map (sample standard deviation) and the active
    mask. ``z_min = -inf`` marks every voxel active.
    """
    arr = np.asarray(spatial_map, dtype=np.float64).ravel()
    if arr.size < 2:
        raise ValueError("need at least two voxels to standardize")
    std = arr.std(ddof=1)
    if std == 0.0:
        raise ValueError("constant map cannot be standardized")
    z = (arr - arr.mean()) / std
    return z, z >= z_min


def concat_group(datasets, deltas):
    """Stack per-subject data and task courses along time.

    All subjects must share the voxel grid, the TR and the task-course
    count; re-estimate the similarity radius on the concatenated courses
    afterwards, since residual energies add across subjects.
    """
    datasets = list(datasets)
    deltas = list(deltas)
    if not datasets or len(datasets) != len(deltas):
        raise ValueError("need one task-course set per dataset")
    n, tr = datasets[0].n_voxels, datasets[0].tr
    m = deltas[0].n_courses
    for ds, dl in zip(datasets, deltas):
        if ds.n_voxels != n:
            raise ValueError("voxel counts differ across subjects")
        if ds.tr != tr:
            raise ValueError(f"repetition times differ across subjects: {tr} and {ds.tr}")
        if dl.n_courses != m:
            raise ValueError("task-course counts differ across subjects")
        if dl.n_times != ds.n_times:
            raise ValueError("task courses must cover each subject's scan")
    x = np.vstack([ds.values for ds in datasets])
    delta = np.vstack([dl.values for dl in deltas])
    return DataMatrix(x, tr=tr), TaskTimeCourses(delta)
