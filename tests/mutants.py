"""Deliberately broken solver builds used to prove the agreement
harness has teeth."""

from qpfix.solvers import (
    IterationTrace,
    SolverReport,
    TraceRow,
    _residuals,
    _unique_names,
    scheme_for,
    scheme_phases,
)


def _residuals_at(space, coupled, named, x, y):
    images = [(coupled.name, coupled(x, y), coupled(y, x))]
    images += [(name, m(x), m(y)) for name, m in named]
    for _, fx, fy in images:
        space.require(fx)
        space.require(fy)
    return _residuals(space, images, x, y)


def mutant_pair_solver(ctx, coupled, maps, seed, cfg):
    """Pair scheme with the even/odd roles swapped: the self map goes
    first in every cycle instead of the coupled map."""
    g = maps[0]
    space, phi = ctx.space, ctx.phi
    x, y = seed
    rows = [TraceRow(0, x, y, phi(x), phi(y), 0.0, 0.0, "seed")]
    named = list(zip(_unique_names(maps), maps))
    n, stall, status = 0, 0, None

    def residual_ok(px, py):
        _, _, ds = _residuals_at(space, coupled, named, px, py)
        return max(ds.values()) <= cfg.tol

    while status is None:
        px, py = x, y
        probe = []
        stationary = True
        for label in ("G", "F"):
            if label == "G":
                nx, ny = g(px), g(py)
            else:
                nx, ny = coupled(px, py), coupled(py, px)
            if space.sup_dist(px, nx) != 0.0 or space.sup_dist(py, ny) != 0.0:
                stationary = False
            probe.append((label, nx, ny))
            px, py = nx, ny
        if stationary and residual_ok(x, y):
            status = "converged"
            break
        for label, nx, ny in probe:
            rows[-1].step_x = space.dist(x, nx)
            rows[-1].step_y = space.dist(y, ny)
            sstep = space.sup_dist(x, nx) + space.sup_dist(y, ny)
            n += 1
            rows.append(TraceRow(n, nx, ny, phi(nx), phi(ny), 0.0, 0.0, label))
            x, y = nx, ny
            stall = stall + 1 if sstep < cfg.tol else 0
            if stall >= cfg.stall_window:
                if residual_ok(x, y):
                    status = "converged"
                    break
                stall = 0
            if n >= cfg.max_iter:
                status = "max_iter"
                break
    rd, rdi, rds = _residuals_at(space, coupled, named, x, y)
    return SolverReport(
        status=status, scheme="pair",
        candidate=(x, y) if status == "converged" else None,
        residual_d=rd, residual_dinv=rdi, residual_ds=rds, iterations=n,
        trace=IterationTrace(rows, "pair"), config=cfg,
    )


def mutant_never_converges(ctx, coupled, maps, seed, cfg):
    """The real scheme with its stopping tests taken out: every seed runs
    max_iter indices and reports max_iter, whether or not it converged."""
    scheme = scheme_for(len(maps))
    cycle, phase_maps = scheme_phases(scheme, maps)
    phi = ctx.phi
    x, y = seed
    rows = [TraceRow(0, x, y, phi(x), phi(y), 0.0, 0.0, "seed")]
    for n in range(1, cfg.max_iter + 1):
        label = cycle[(n - 1) % len(cycle)]
        if label == "F":
            x, y = coupled(x, y), coupled(y, x)
        else:
            x, y = phase_maps[label](x), phase_maps[label](y)
        rows.append(TraceRow(n, x, y, phi(x), phi(y), 0.0, 0.0, label))
    rd, rdi, rds = _residuals_at(ctx.space, coupled, list(zip(_unique_names(maps), maps)), x, y)
    return SolverReport(
        status="max_iter", scheme=scheme, candidate=None,
        residual_d=rd, residual_dinv=rdi, residual_ds=rds, iterations=cfg.max_iter,
        trace=IterationTrace(rows, scheme), config=cfg,
    )
