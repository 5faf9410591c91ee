/* One cyclic ccd or ccm sweep of a quadratic, the loop of
 * CoordinateKernel.sweep with the same float operations in the same order.
 *
 * A is the d x d matrix (row-major), steps the per-coordinate step (L for
 * ccd, A_jj for ccm), w the iterate and state the gradient A w + b at w;
 * both are updated in place. Compile without FMA contraction or fast-math
 * (see _qsweep.py), so every operation rounds as numpy's does.
 */
void qsweep(long d, const double *A, const double *steps, double lam,
            double *w, double *state)
{
    for (long j = 0; j < d; j++) {
        double s = steps[j];
        double z_old = w[j];
        double v = z_old - state[j] / s;
        double t = lam / s;
        /* _shrink: a NaN fails both tests and falls through to v + t. */
        double z_new = v > t ? v - t : v >= -t ? 0.0 : v + t;
        double delta = z_new - z_old;
        if (delta != 0.0) {
            const double *row = A + j * d;
            for (long i = 0; i < d; i++)
                state[i] += delta * row[i];
        }
        w[j] = z_new;
    }
}
