"""Timeseries stage invariants: the moment-based distributed
season-trend fit matches a per-pixel np.linalg.lstsq reference in all
three observation tiers and is partition/attach-path independent;
TMask outlier flags match a scalar transcription."""

import math

import numpy as np
import pyarrow as pa
import pytest

from rsgislib_ray.stages import timeseries as ts


def _series(rng, n_pix, obs_range, t_span=2000):
    rows = []
    for p in range(n_pix):
        n = rng.integers(*obs_range)
        t = np.sort(rng.choice(np.arange(100, 100 + t_span), n, replace=False))
        y = (
            500
            + 0.05 * (t - t[0])
            + 120 * np.cos(ts.W1 * (t - t[0]) + rng.uniform(0, 2 * np.pi))
            + rng.normal(0, 15, n)
        )
        for ti, yi in zip(t, np.rint(y).astype(np.int64)):
            rows.append((p, int(ti), int(yi)))
    rng.shuffle(rows)
    a = np.array(rows, dtype=np.int64)
    return pa.table(
        {"pix": a[:, 0], "t": a[:, 1], "y": a[:, 2]}
    )


def _reference_fit(tbl, lattice=ts.LATTICE):
    """Per-pixel lstsq on the SAME quantized basis — the semantics the
    distributed moments implement."""
    import pandas as pd

    df = tbl.to_pandas()
    out = {}
    for p, g in df.groupby("pix"):
        t = g["t"].to_numpy()
        y = g["y"].to_numpy().astype(np.float64)
        n = len(t)
        if n < ts.TIER_MIN_OBS:
            continue
        k = 8 if n >= ts.TIER_FULL else (6 if n >= ts.TIER_ADVANCED else 4)
        tr = t - t.min()
        cols = ts._quant_cols(tr, lattice)
        X = np.stack(
            [
                cols[i].astype(np.float64) / ts._scale_of(i, lattice)
                for i in range(k)
            ],
            axis=1,
        )
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        rmse = math.sqrt(np.mean((y - X @ beta) ** 2))
        out[p] = (k, beta, rmse)
    return out


@pytest.mark.parametrize("attach", ["broadcast", "join"])
def test_season_trend_fit_vs_lstsq(ray_session, attach):
    import ray.data

    rng = np.random.default_rng(3)
    tbl = _series(rng, 12, (10, 40))  # spans all tiers + sub-minimum
    ds = ray.data.from_arrow(tbl).repartition(5)
    models, _t0 = ts.season_trend_fit(
        ds, "pix", "t", "y", t0_attach=attach
    )
    got = models.to_pandas().set_index("pix").sort_index()
    want = _reference_fit(tbl)
    assert set(got.index) == set(want)
    for p, (k, beta, rmse) in want.items():
        row = got.loc[p]
        assert int(row["k"]) == k
        for i in range(k):
            assert row[f"coef{i}"] == pytest.approx(
                beta[i], rel=1e-6, abs=1e-8
            )
        for i in range(k, 8):
            assert row[f"coef{i}"] == 0.0
        assert row["rmse"] == pytest.approx(rmse, rel=1e-6)


def test_attach_paths_bit_identical(ray_session):
    import ray.data

    rng = np.random.default_rng(5)
    tbl = _series(rng, 8, (12, 30))
    ds = ray.data.from_arrow(tbl).repartition(4)
    a, _ = ts.season_trend_fit(ds, "pix", "t", "y", t0_attach="broadcast")
    b, _ = ts.season_trend_fit(ds, "pix", "t", "y", t0_attach="join")
    pa_df = a.to_pandas().sort_values("pix").reset_index(drop=True)
    pb_df = b.to_pandas().sort_values("pix").reset_index(drop=True)
    assert (pa_df.to_numpy() == pb_df.to_numpy()).all()


def test_partition_independent_bits(ray_session):
    """Integer moments make the whole chain deterministic: different
    partitionings give BIT-identical coefficients."""
    import ray.data

    rng = np.random.default_rng(9)
    tbl = _series(rng, 6, (12, 30))
    outs = []
    for parts in (1, 7):
        ds = ray.data.from_arrow(tbl).repartition(parts)
        m, _ = ts.season_trend_fit(ds, "pix", "t", "y")
        outs.append(
            m.to_pandas().sort_values("pix").reset_index(drop=True)
        )
    assert (outs[0].to_numpy() == outs[1].to_numpy()).all()


def test_predict_for_day(ray_session):
    """Prediction at an observed day of a noise-free series matches
    the observation closely."""
    import ray.data

    t = np.arange(200, 200 + 16 * 30, 30)
    y = np.rint(
        1000 + 0.1 * (t - t[0]) + 200 * np.cos(ts.W1 * (t - t[0]))
    ).astype(np.int64)
    tbl = pa.table(
        {
            "pix": np.zeros(len(t), dtype=np.int64),
            "t": t.astype(np.int64),
            "y": y,
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(2)
    models, t0 = ts.season_trend_fit(ds, "pix", "t", "y")
    pred = ts.predict_for_day(models, t0, int(t[5]), "pix").to_pandas()
    assert pred["predicted"][0] == pytest.approx(float(y[5]), abs=2.0)


def _tmask_scalar(t, g, n, s, threshold):
    tr = t - t.min()
    ny = max(float(tr.max()) / ts.T_DAYS, 1.0)
    x = ts._tmask_basis(tr, ny)
    d = {}
    for name, y in (("g", g), ("n", n), ("s", s)):
        _b, r = ts.tukey_irls(x, y.astype(np.float64))
        d[name] = r
    keep = (d["g"] < threshold) & (
        (d["n"] > -threshold) | (d["s"] > -threshold)
    )
    return (~keep).astype(np.int64)


def test_tmask_outliers(ray_session):
    import ray.data

    rng = np.random.default_rng(17)
    rows = []
    want = {}
    for p in range(4):
        n = 60
        t = np.sort(rng.choice(np.arange(0, 2200), n, replace=False))
        base = 300 + 80 * np.cos(ts.W1 * (t - t[0]))
        g = base + rng.normal(0, 10, n)
        nir = 2500 + 300 * np.cos(ts.W1 * (t - t[0])) + rng.normal(0, 30, n)
        sw = 1500 + 200 * np.cos(ts.W1 * (t - t[0])) + rng.normal(0, 25, n)
        # plant clouds: bright green, dark nir+swir
        cloud = rng.choice(n, 5, replace=False)
        g[cloud] += 800
        nir[cloud] -= 1500
        sw[cloud] -= 1000
        g, nir, sw = (np.rint(v).astype(np.int64) for v in (g, nir, sw))
        want[p] = (t, _tmask_scalar(t, g, nir, sw, 40.0), cloud)
        for i in range(n):
            rows.append((p, int(t[i]), int(g[i]), int(nir[i]), int(sw[i])))
    a = np.array(rows, dtype=np.int64)
    tbl = pa.table(
        {
            "pix": a[:, 0],
            "t": a[:, 1],
            "green": a[:, 2],
            "nir": a[:, 3],
            "swir": a[:, 4],
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(3)
    got = (
        ts.tmask_outliers(ds, "pix", "t", "green", "nir", "swir", 40.0)
        .to_pandas()
        .sort_values(["pix", "t"])
    )
    for p, (t, flags, cloud) in want.items():
        rows_p = got[got["pix"] == p].sort_values("t")
        assert rows_p["outlier"].to_numpy().tolist() == flags.tolist()
        # every planted cloud is caught
        cloud_t = set(t[cloud])
        flagged_t = set(rows_p[rows_p["outlier"] == 1]["t"])
        assert cloud_t <= flagged_t


def test_st_outlier_masks_planted_spikes(ray_session):
    """get_ST_masks semantics: a clean seasonal series with planted
    spikes flags exactly the spikes (+1 high / -1 low), rows with any
    nodata band are masked 0 and excluded from the fit, and a pixel
    with < 12 clean observations is all-zero."""
    import pyarrow as pa
    import ray

    from rsgislib_ray.stages.timeseries import st_outlier_masks

    t = np.arange(0, 365 * 2, 16, dtype=np.int64)  # 46 obs
    base = 100 + 20 * np.cos(2 * np.pi * t / 365.25)
    y = np.rint(base).astype(np.int64)
    y[10] += 300   # high spike
    y[30] -= 300   # low spike
    y2 = np.full(len(t), 50, np.int64)
    y2[5] = -99    # nodata row -> excluded + masked 0 for BOTH bands
    rows = {
        "pix": np.concatenate(
            [np.zeros(len(t), np.int64), np.ones(4, np.int64)]
        ),
        "t": np.concatenate([t, np.arange(4, dtype=np.int64)]),
        "b0": np.concatenate([y, np.array([900, 1, 1, 1], np.int64)]),
        "b1": np.concatenate([y2, np.ones(4, np.int64)]),
    }
    out = (
        st_outlier_masks(
            ray.data.from_arrow(pa.table(rows)),
            "pix", "t", ["b0", "b1"], nodata=-99, threshold=3.0,
        )
        .to_pandas()
        .sort_values(["pix", "t", "band"])
    )
    p0 = out[(out["pix"] == 0) & (out["band"] == 0)].set_index("t")
    assert p0.loc[t[10], "mask"] == 1
    assert p0.loc[t[30], "mask"] == -1
    assert p0.loc[t[5], "mask"] == 0          # the nodata row
    clean = np.ones(len(t), bool)
    clean[[5, 10, 30]] = False
    assert (p0.loc[t[clean], "mask"] == 0).all()
    # pixel 1 has only 4 observations -> all masks 0 despite the 900
    p1 = out[out["pix"] == 1]
    assert (p1["mask"] == 0).all()


def test_t0_attach_auto_routes_by_measured_size(
    ray_session, monkeypatch
):
    """The default t0_attach='auto' must pick broadcast under the
    threshold and actually engage the hash-join path above it
    (VERDICT r4 #6), with bit-identical results either way."""
    import ray.data

    import rsgislib_ray.stages.partition as partition
    import rsgislib_ray.stages.segsum as segsum

    rng = np.random.default_rng(7)
    tbl = _series(rng, 6, (12, 20))
    ds = ray.data.from_arrow(tbl).repartition(3)

    calls = []
    real = partition.join

    def spy(*a, **k):
        calls.append(a[2])
        return real(*a, **k)

    monkeypatch.setattr(partition, "join", spy)

    # under the threshold: broadcast, join machinery untouched
    a, _ = ts.season_trend_fit(ds, "pix", "t", "y", t0_attach="auto")
    a_df = a.to_pandas().sort_values("pix").reset_index(drop=True)
    assert calls == []

    # force the threshold to zero: auto must route through the join
    monkeypatch.setattr(segsum, "AUTO_NATIVE_ROWS", 0)
    b, _ = ts.season_trend_fit(ds, "pix", "t", "y", t0_attach="auto")
    b_df = b.to_pandas().sort_values("pix").reset_index(drop=True)
    assert calls, "auto above threshold must engage the join path"
    assert (a_df.to_numpy() == b_df.to_numpy()).all()


def _lasso_residual_form(tbl, alpha, n_cycles, lattice=ts.LATTICE):
    """Per-pixel RESIDUAL-update cyclic coordinate descent on the
    descaled quantized design — the textbook form of the same
    fixed-iteration algorithm the finisher runs in covariance (Gram)
    form. Exact-arithmetic-equal; float paths differ at the ulp
    level, so comparisons are toleranced."""
    df = tbl.to_pandas()
    out = {}
    for p, g in df.groupby("pix"):
        t = g["t"].to_numpy()
        y = g["y"].to_numpy().astype(np.float64)
        n = len(t)
        if not (ts.TIER_MIN_OBS <= n < ts.TIER_ADVANCED):
            continue
        tr = t - t.min()
        cols = ts._quant_cols(tr, lattice)
        X = np.stack(
            [
                cols[i].astype(np.float64) / ts._scale_of(i, lattice)
                for i in (1, 2, 3)
            ],
            axis=1,
        )
        Xm = X.mean(axis=0)
        ym = y.mean()
        Xc = X - Xm
        yc = y - ym
        w = np.zeros(3)
        thr = n * alpha
        for _ in range(n_cycles):
            for j in range(3):
                r_part = yc - Xc @ w + Xc[:, j] * w[j]
                rho = Xc[:, j] @ r_part
                denom = Xc[:, j] @ Xc[:, j]
                w[j] = (
                    0.0
                    if abs(rho) <= thr
                    else (rho - np.sign(rho) * thr) / denom
                )
        icpt = ym - Xm @ w
        resid = y - (icpt + X @ w)
        out[p] = (w.copy(), icpt, float(np.sqrt(np.mean(resid**2))))
    return out


def _lasso_models(tbl, parts, **kw):
    import ray.data

    ds = ray.data.from_arrow(tbl).repartition(parts)
    moments, _t0 = ts.season_trend_moments(ds, "pix", "t", "y")
    return (
        ts.season_trend_lasso_finish(moments, "pix", **kw)
        .to_pandas()
        .set_index("pix")
        .sort_index()
    )


def test_lasso_matches_residual_form_cd(ray_session):
    """Gram-form fixed-iteration CD == residual-form CD (same cycles,
    same soft threshold) within float tolerance, on a fixture where
    the sparsity pattern varies across pixels."""
    rng = np.random.default_rng(11)
    tbl = _series(rng, 10, (12, 18))
    got = _lasso_models(tbl, 4, alpha=40.0, n_cycles=5)
    want = _lasso_residual_form(tbl, 40.0, 5)
    assert set(got.index) == set(want)
    nz_counts = set()
    for p, (w, icpt, rmse) in want.items():
        row = got.loc[p]
        np.testing.assert_allclose(
            [row["slope"], row["cos1"], row["sin1"]], w,
            rtol=1e-8, atol=1e-10,
        )
        # identical support (which coefficients were zeroed)
        assert (
            np.array([row["slope"], row["cos1"], row["sin1"]]) != 0
        ).tolist() == (w != 0).tolist()
        np.testing.assert_allclose(row["intercept"], icpt, rtol=1e-8)
        np.testing.assert_allclose(row["rmse"], rmse, rtol=1e-6)
        nz_counts.add(int(row["nonzero"]))
    assert len(nz_counts) >= 2, "fixture must vary the support"


def test_lasso_alpha_limits(ray_session):
    """alpha -> huge zeroes every coefficient (intercept = mean,
    RMSE = population stddev); alpha -> ~0 with enough cycles
    converges to the OLS season-trend solution."""
    rng = np.random.default_rng(5)
    tbl = _series(rng, 6, (12, 18))
    big = _lasso_models(tbl, 3, alpha=1e9, n_cycles=5)
    df = tbl.to_pandas()
    for p, g in df.groupby("pix"):
        if not (ts.TIER_MIN_OBS <= len(g) < ts.TIER_ADVANCED):
            continue
        y = g["y"].to_numpy().astype(np.float64)
        row = big.loc[p]
        assert row["nonzero"] == 0
        assert row[["slope", "cos1", "sin1"]].to_numpy().tolist() == [
            0.0, 0.0, 0.0,
        ]
        np.testing.assert_allclose(row["intercept"], y.mean(), rtol=1e-12)
        np.testing.assert_allclose(row["rmse"], y.std(), rtol=1e-9)

    import ray.data

    small = _lasso_models(tbl, 3, alpha=1e-9, n_cycles=400)
    ds = ray.data.from_arrow(tbl).repartition(3)
    models, _t0 = ts.season_trend_fit(ds, "pix", "t", "y")
    ols = models.to_pandas().set_index("pix").sort_index()
    for p in small.index:
        np.testing.assert_allclose(
            small.loc[p, ["slope", "cos1", "sin1"]].to_numpy(),
            ols.loc[p, ["coef1", "coef2", "coef3"]].to_numpy(),
            rtol=1e-6, atol=1e-9,
        )
        np.testing.assert_allclose(
            small.loc[p, "intercept"], ols.loc[p, "coef0"], rtol=1e-6
        )


def test_lasso_partition_independent_bits(ray_session):
    """Integer moments are order-independent and the finisher is a
    deterministic chain — results must be bit-identical across
    partitionings."""
    rng = np.random.default_rng(13)
    tbl = _series(rng, 8, (12, 18))
    a = _lasso_models(tbl, 2, alpha=1.0)
    b = _lasso_models(tbl, 7, alpha=1.0)
    assert (a.to_numpy() == b.to_numpy()).all()
