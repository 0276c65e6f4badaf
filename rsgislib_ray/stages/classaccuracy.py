"""Classification accuracy assessment: distributed confusion matrix
plus the reference's accuracy-metric panel.

Reimplements the closed-form core of
/root/reference/python/rsgislib/classification/classaccuracymetrics.py:
``calc_class_accuracy_metrics`` (sklearn classification_report +
kappa / balanced accuracy / Matthews / hamming loss / user+producer
accuracies, :120-248) and ``cls_quantity_accuracy`` (Pontius &
Millones 2011 quantity/allocation disagreement, :47-119). The
reference computes everything on driver-resident sample arrays via
sklearn; ours reduces the (ref, pred) pair counts with ONE
pre-reduced combine (:mod:`rsgislib_ray.stages.segsum`) — the only
part that scales with sample count — and derives every metric from
the k x k integer confusion matrix in fixed-order float chains
(documented below and mirrored literally by the SQL oracles, so
results are bit-exact).

Chain conventions (the parity contract): all class loops accumulate
left-associatively in ascending class-index order; every ratio is a
single float division of exact int64 sums; divisions by an empty
class follow sklearn's ``zero_division=0``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from rsgislib_ray.stages.partition import map_blocks
from rsgislib_ray.stages.segsum import combine, combine_arrays, combine_dataset


def _pair_partials(ds: ray.data.Dataset, ref_col: str, pred_col: str) -> list:
    """Per-block pre-reduced (ref, pred, n_partial) pair counts, as
    held blocks."""

    def partial(batch: pa.Table) -> pa.Table:
        r = batch[ref_col].to_numpy()
        p = batch[pred_col].to_numpy()
        return combine_arrays(
            {"ref": r, "pred": p}, {"n_partial": np.ones(len(r), np.int64)}
        )

    return map_blocks(ds, partial)


def confusion_dataset(
    ds: ray.data.Dataset, ref_col: str, pred_col: str
) -> ray.data.Dataset:
    """Distributed confusion counts as a Dataset, through one
    :func:`rsgislib_ray.stages.segsum.combine_dataset` — rows (ref,
    pred, n) for present combinations only."""
    return combine_dataset(
        _pair_partials(ds, ref_col, pred_col),
        ["ref", "pred"],
        ["n_partial"],
        finish=lambda t: t.rename_columns(["ref", "pred", "n"]),
    )


def confusion_counts(
    ds: ray.data.Dataset, ref_col: str, pred_col: str
) -> dict[tuple[int, int], int]:
    """Confusion counts as a tiny driver dict (k^2 entries), through one
    :func:`rsgislib_ray.stages.segsum.combine`."""
    t = combine(_pair_partials(ds, ref_col, pred_col), ["ref", "pred"], ["n_partial"])
    return {(r, p): n for r, p, n in zip(*t.to_pydict().values())}


def _cm_array(
    counts: dict[tuple[int, int], int], classes: list[int]
) -> np.ndarray:
    k = len(classes)
    idx = {c: i for i, c in enumerate(classes)}
    cm = np.zeros((k, k), dtype=np.int64)
    for (r, p), n in counts.items():
        if r in idx and p in idx:
            cm[idx[r], idx[p]] = n
    return cm


def per_class_metrics(
    counts: dict[tuple[int, int], int], classes: list[int]
) -> pa.Table:
    """Per-class precision / recall / f1 / support plus the
    reference's user & producer accuracies in percent
    (classaccuracymetrics.py:185-207: user = diag/row-of-cm.T,
    producer = diag/col-of-cm.T — i.e. precision*100 and recall*100
    chains from the raw counts)."""
    cm = _cm_array(counts, classes)
    k = len(classes)
    out = {
        "cls": [], "support": [], "precision": [], "recall": [],
        "f1": [], "user_acc_pct": [], "producer_acc_pct": [],
    }
    for i in range(k):
        support = 0
        for j in range(k):
            support += int(cm[i, j])
        predtot = 0
        for j in range(k):
            predtot += int(cm[j, i])
        diag = int(cm[i, i])
        prec = float(diag) / float(predtot) if predtot > 0 else 0.0
        rec = float(diag) / float(support) if support > 0 else 0.0
        f1 = (
            (2.0 * prec * rec) / (prec + rec)
            if (prec + rec) > 0.0
            else 0.0
        )
        out["cls"].append(classes[i])
        out["support"].append(support)
        out["precision"].append(prec)
        out["recall"].append(rec)
        out["f1"].append(f1)
        out["user_acc_pct"].append(
            (float(diag) / float(predtot)) * 100.0 if predtot > 0 else 0.0
        )
        out["producer_acc_pct"].append(
            (float(diag) / float(support)) * 100.0 if support > 0 else 0.0
        )
    return pa.table(
        {
            "cls": pa.array(out["cls"], pa.int64()),
            "support": pa.array(out["support"], pa.int64()),
            "precision": pa.array(out["precision"], pa.float64()),
            "recall": pa.array(out["recall"], pa.float64()),
            "f1": pa.array(out["f1"], pa.float64()),
            "user_acc_pct": pa.array(out["user_acc_pct"], pa.float64()),
            "producer_acc_pct": pa.array(
                out["producer_acc_pct"], pa.float64()
            ),
        }
    )


def global_metrics(
    counts: dict[tuple[int, int], int],
    classes: list[int],
    cls_area: list[float] | None = None,
) -> pa.Table:
    """One-row global panel: overall accuracy, Cohen's kappa,
    balanced accuracy, multiclass Matthews correlation, hamming loss
    (classaccuracymetrics.py:152-176) and — when ``cls_area`` is
    given — the Pontius & Millones quantity / allocation /
    proportion-correct / total disagreement (``cls_quantity_accuracy``,
    :47-119, including its cm.T orientation and proportional-area
    normalization)."""
    cm = _cm_array(counts, classes)
    k = len(classes)
    support = [0] * k
    predtot = [0] * k
    diag_sum = 0
    total = 0
    for i in range(k):
        for j in range(k):
            support[i] += int(cm[i, j])
            predtot[j] += int(cm[i, j])
            total += int(cm[i, j])
        diag_sum += int(cm[i, i])
    tf = float(total)
    overall = float(diag_sum) / tf
    hamming = float(total - diag_sum) / tf
    # kappa: pe from exact integer sum of support*predtot
    pe_num = 0
    for i in range(k):
        pe_num += support[i] * predtot[i]
    pe = float(pe_num) / (tf * tf)
    kappa = (overall - pe) / (1.0 - pe)
    # balanced accuracy: mean of recalls, ascending class order
    bal = 0.0
    for i in range(k):
        bal = bal + (
            float(cm[i, i]) / float(support[i]) if support[i] > 0 else 0.0
        )
    bal = bal / float(k)
    # multiclass Matthews: (c*s - sum t_k p_k) /
    #   sqrt((s^2 - sum p_k^2) * (s^2 - sum t_k^2))
    tp_sum = 0
    pp_sum = 0
    tt_sum = 0
    for i in range(k):
        tp_sum += support[i] * predtot[i]
        pp_sum += predtot[i] * predtot[i]
        tt_sum += support[i] * support[i]
    mcc = (float(diag_sum) * tf - float(tp_sum)) / np.sqrt(
        (tf * tf - float(pp_sum)) * (tf * tf - float(tt_sum))
    )
    cols = {
        "total": pa.array([total], pa.int64()),
        "overall_acc": pa.array([overall], pa.float64()),
        "cohen_kappa": pa.array([kappa], pa.float64()),
        "balanced_acc": pa.array([bal], pa.float64()),
        "matthews": pa.array([float(mcc)], pa.float64()),
        "hamming_loss": pa.array([hamming], pa.float64()),
    }
    if cls_area is not None:
        area_sum = 0.0
        for a in cls_area:
            area_sum = area_sum + float(a)
        # cm.T row i = predictions of class i; norm[i][j] =
        # (cmT[i][j] / predtot_i) * prop_i
        prop = [float(a) / area_sum for a in cls_area]
        norm = [[0.0] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                norm[i][j] = (
                    float(cm[j, i]) / float(predtot[i])
                ) * prop[i]
        comp = [0.0] * k
        reft = [0.0] * k
        for i in range(k):
            for j in range(k):
                comp[i] = comp[i] + norm[i][j]
                reft[j] = reft[j] + norm[i][j]
        q = 0.0
        for j in range(k):
            q = q + abs(reft[j] - comp[j])
        q = q / 2.0
        a_dis = 0.0
        for i in range(k):
            commission = comp[i] - norm[i][i]
            omission = reft[i] - norm[i][i]
            a_dis = a_dis + 2.0 * min(commission, omission)
        a_dis = a_dis / 2.0
        norm_sum = 0.0
        diag_norm = 0.0
        for i in range(k):
            for j in range(k):
                norm_sum = norm_sum + norm[i][j]
            diag_norm = diag_norm + norm[i][i]
        cols["quantity_dis"] = pa.array([q], pa.float64())
        cols["allocation_dis"] = pa.array([a_dis], pa.float64())
        cols["prop_correct"] = pa.array(
            [diag_norm / norm_sum], pa.float64()
        )
        cols["total_dis"] = pa.array([q + a_dis], pa.float64())
    return pa.table(cols)
