"""Correctness checks of every phase, against reference numpy code written
here independently of the package (direct pairwise differences instead of
the expanded distance formula, explicit softmax and Hellinger sums).

Each check returns the list of the names of the checks that failed.  No
stored copy of earlier output is used.
"""

from __future__ import annotations

import numpy as np

from slisemap import metrics, objective, solver

RTOL = 1e-7  # the two distance formulas differ by rounding near D = 0
READD_SLACK = 1e-4
DIST_GRAD_EPS = 1e-12
FD_STEP = 1e-7  # well inside the 1e-6 scale of the distance smoothing


def ref_losses(B, X, Y, task) -> np.ndarray:
    """Loss of model row i on item j."""
    if not task.is_classification:
        return (B @ X.T - Y[:, 0][None, :]) ** 2
    p = task.n_classes
    coef = B.reshape(B.shape[0], p - 1, X.shape[1])
    logits = np.zeros((B.shape[0], X.shape[0], p))
    logits[:, :, :-1] = np.einsum("ick,jk->ijc", coef, X)
    logits -= logits.max(axis=2, keepdims=True)
    Q = np.exp(logits)
    Q /= Q.sum(axis=2, keepdims=True)
    return 1.0 - np.sqrt(Q * Y[None, :, :]).sum(axis=2)


def ref_distances(Z_rows, Z_all) -> np.ndarray:
    diff = Z_rows[:, None, :] - Z_all[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def ref_contributions(X, Y, B_rows, Z_rows, Z_all, hp, task) -> np.ndarray:
    """Each given row's weighted data loss over all items plus its own
    embedding and lasso penalties."""
    E = np.exp(-ref_distances(Z_rows, Z_all))
    W = E / E.sum(axis=1, keepdims=True)
    L = ref_losses(B_rows, X, Y, task)
    return (W * L).sum(axis=1) + hp.lambda_z * (Z_rows ** 2).sum(axis=1) \
        + hp.lambda_lasso * np.abs(B_rows).sum(axis=1)


def ref_total(X, Y, B, Z, hp, task) -> float:
    return float(ref_contributions(X, Y, B, Z, Z, hp, task).sum())


def smoothed_total(X, Y, B, Z, hp, task) -> float:
    """The loss with every off-diagonal distance D replaced by
    sqrt(D^2 + 1e-12): the function whose gradient the package computes
    (objective.py smooths the distance derivative that way)."""
    diff = Z[:, None, :] - Z[None, :, :]
    D = np.sqrt((diff * diff).sum(axis=2) + DIST_GRAD_EPS)
    np.fill_diagonal(D, 0.0)
    E = np.exp(-D)
    W = E / E.sum(axis=1, keepdims=True)
    return float((W * ref_losses(B, X, Y, task)).sum()
                 + hp.lambda_z * (Z ** 2).sum()
                 + hp.lambda_lasso * np.abs(B).sum())


def _close(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return bool(np.all(np.abs(a - b) <= RTOL * np.abs(b)))


def check_fit(sol, p) -> list[str]:
    bad = []
    X, Y, B, Z = sol.X, sol.Y, sol.B, sol.Z
    hp, task = sol.hyperparams, sol.task
    f_ref = ref_total(X, Y, B, Z, hp, task)
    if not _close(sol.final_loss, f_ref):
        bad.append(f"final loss {sol.final_loss!r} != reference {f_ref!r}")
    h = sol.loss_history
    if any(b > a for a, b in zip(h, h[1:])):
        bad.append("loss_history increases")
    # central-difference directional derivatives along a random direction
    # and along the gradient itself, against the analytic gradient
    _, gB, gZ = objective.loss_and_gradients(X, Y, B, Z, hp, task)
    g = np.concatenate([gB.ravel(), gZ.ravel()])
    x = np.concatenate([B.ravel(), Z.ravel()])
    nb = B.size

    def f_at(v):
        return smoothed_total(X, Y, v[:nb].reshape(B.shape),
                              v[nb:].reshape(Z.shape), hp, task)

    noise = 100 * np.finfo(float).eps * abs(f_ref) / FD_STEP
    for u in (p.probe, g / np.linalg.norm(g)):
        fd = (f_at(x + FD_STEP * u) - f_at(x - FD_STEP * u)) / (2 * FD_STEP)
        slope = float(g @ u)
        if abs(fd - slope) > 1e-5 * abs(slope) + noise:
            bad.append(f"directional derivative {fd!r} != gradient {slope!r}")
    return bad


def _knn_ambiguity(D: np.ndarray, k: int):
    """Neighbour lists from reference distances, and the rows whose k-th
    and (k+1)-th neighbours tie within rounding (either may be chosen)."""
    D = D.copy()
    np.fill_diagonal(D, np.inf)
    order = np.argsort(D, axis=1, kind="stable")
    dk = np.take_along_axis(D, order[:, k - 1:k + 1], axis=1)
    tied = dk[:, 1] - dk[:, 0] <= 1e-9 * (1.0 + dk[:, 0])
    return order[:, :k], tied


def check_report(report, sol, p, ks) -> list[str]:
    bad = []
    X, Y, B, Z, task = sol.X, sol.Y, sol.B, sol.Z, sol.task
    n = X.shape[0]
    if task.is_classification:
        H = objective.local_loss_matrix(B, X, Y, task)
        if not (H.min() >= 0.0 and H.max() <= 1.0):
            bad.append(f"Hellinger loss outside [0, 1]: "
                       f"{H.min()!r}..{H.max()!r}")
    L = ref_losses(B, X, Y, task)

    # global reference model: its own threshold covers 30% of the items
    b = metrics.fit_global_model(X, Y, task,
                                 lambda_lasso=sol.hyperparams.lambda_lasso,
                                 config=p.config)
    g_losses = ref_losses(b[None, :], X, Y, task)[0]
    l0 = report.threshold_l0
    if not _close(np.quantile(g_losses, 0.3), l0):
        bad.append("threshold is not the 0.3 quantile of global losses")
    cov = float((g_losses < l0).mean())
    if abs(cov - 0.3) > 1.0 / n:
        bad.append(f"global model full coverage {cov} not 0.3 +- 1/n")

    # fidelity, coverage and purity from an independent kNN
    near = np.abs(L - l0) <= 1e-9 * abs(l0)  # may fall either side of l0
    if abs(float((L < l0).mean()) - report.coverage_full) > near.mean():
        bad.append("coverage_full")
    if not _close(float(np.diag(L).mean()), report.fidelity_point):
        bad.append("fidelity_point")
    D = ref_distances(Z, Z)
    labels = np.asarray(p.labels)
    for k in ks:
        nn, tied = _knn_ambiguity(D, k)
        slack = tied.mean()
        rows = np.arange(n)[:, None]
        fid = float(L[rows, nn].mean())
        if abs(fid - report.fidelity_knn[k]) > RTOL * abs(fid) \
                + slack * L.max():
            bad.append(f"fidelity_knn[{k}]")
        cov = float((L[rows, nn] < l0).mean())
        if abs(cov - report.coverage_knn[k]) > slack + near.mean():
            bad.append(f"coverage_knn[{k}]")
        pur = float((labels[nn] == labels[:, None]).mean())
        if abs(pur - report.purity_knn[k]) > slack:
            bad.append(f"purity_knn[{k}]")
    return bad


def check_added(sol, X_new, Y_new, B_new, Z_new, losses) -> list[str]:
    """The returned losses are the new rows' contributions to the
    incremented problem, recomputed here."""
    m = X_new.shape[0]
    if B_new.shape != (m, sol.B.shape[1]) \
            or Z_new.shape != (m, sol.Z.shape[1]) or np.shape(losses) != (m,):
        return ["output shapes"]
    if not (np.isfinite(B_new).all() and np.isfinite(Z_new).all()):
        return ["non-finite output"]
    X = np.vstack([sol.X, X_new])
    Y = np.vstack([sol.Y, Y_new])
    Z_all = np.vstack([sol.Z, Z_new])
    ref = ref_contributions(X, Y, B_new, Z_new, Z_all, sol.hyperparams,
                            sol.task)
    if not _close(losses, ref):
        return ["added-point losses differ from the reference"]
    return []


def check_readd(sol, i, config) -> list[str]:
    """Training row ``i`` added again costs no more than it does in the
    fit."""
    contrib = solver.row_contributions(sol.X, sol.Y, sol.B, sol.Z,
                                       sol.hyperparams, sol.task)[i]
    _, _, loss = solver.add_new(sol, sol.X[i:i + 1], sol.Y[i:i + 1], config)
    if loss[0] > contrib + READD_SLACK:
        return [f"loss {float(loss[0])!r} > row contribution "
                f"{float(contrib)!r}"]
    return []
