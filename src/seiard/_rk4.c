/* The RK4 day loop of seiard.dynamics.integrate for one parameter vector.
 *
 * Every floating-point operation is the one the Python loop in integrate
 * runs, in the same order and with the same parenthesisation, so that the
 * two give the same bytes.  That holds only when the compiler neither fuses
 * a multiply and an add nor reorders arithmetic: build with
 * -ffp-contract=off and without -ffast-math.  dynamics checks the bytes
 * against the Python loop before it uses a build.
 *
 * rows holds horizon + 1 rows of the 7 compartments (s, e, i, a_recov,
 * a_fatal, r, d); row 0 is the start state and rows 1..horizon are written.
 * The loop stops at the first day whose row has a value that is negative,
 * NaN or infinite, leaves that row as computed and returns its day, which
 * the caller clamps or rejects; it returns 0 when every day passed.
 */

#include <math.h>

long seiard_rk4_days(double *rows, long horizon, long steps_per_day,
                     double beta, double population_n, double t_inc,
                     double t_inf, double t_recov, double t_fatal,
                     double p_fatal)
{
    const double h = 1.0 / steps_per_day;
    const double beta_n = beta / population_n;
    const double sigma = 1.0 / t_inc;
    const double gamma = 1.0 / t_inf;
    const double pf = p_fatal;
    const double pr = 1.0 - pf;
    const double inv_tr = 1.0 / t_recov;
    const double inv_tf = 1.0 / t_fatal;
    const double half = 0.5 * h;
    const double sixth = h / 6.0;

    double s = rows[0], e = rows[1], i = rows[2], ar = rows[3], af = rows[4],
           r = rows[5], d = rows[6];

    for (long day = 1; day <= horizon; day++) {
        for (long step = 0; step < steps_per_day; step++) {
            double f1 = beta_n * i * s;
            double g1 = sigma * e;
            double o1 = gamma * i;
            double u1 = ar * inv_tr;
            double w1 = af * inv_tf;
            double de1 = f1 - g1;
            double di1 = g1 - o1;
            double da1 = pr * o1 - u1;
            double db1 = pf * o1 - w1;

            double i_ = i + half * di1;
            double ar_ = ar + half * da1;
            double af_ = af + half * db1;
            double f2 = beta_n * i_ * (s - half * f1);
            double g2 = sigma * (e + half * de1);
            double o2 = gamma * i_;
            double u2 = ar_ * inv_tr;
            double w2 = af_ * inv_tf;
            double de2 = f2 - g2;
            double di2 = g2 - o2;
            double da2 = pr * o2 - u2;
            double db2 = pf * o2 - w2;

            i_ = i + half * di2;
            ar_ = ar + half * da2;
            af_ = af + half * db2;
            double f3 = beta_n * i_ * (s - half * f2);
            double g3 = sigma * (e + half * de2);
            double o3 = gamma * i_;
            double u3 = ar_ * inv_tr;
            double w3 = af_ * inv_tf;
            double de3 = f3 - g3;
            double di3 = g3 - o3;
            double da3 = pr * o3 - u3;
            double db3 = pf * o3 - w3;

            i_ = i + h * di3;
            ar_ = ar + h * da3;
            af_ = af + h * db3;
            double f4 = beta_n * i_ * (s - h * f3);
            double g4 = sigma * (e + h * de3);
            double o4 = gamma * i_;
            double u4 = ar_ * inv_tr;
            double w4 = af_ * inv_tf;

            s = s - sixth * (f1 + 2.0 * (f2 + f3) + f4);
            e = e + sixth * (de1 + 2.0 * (de2 + de3) + (f4 - g4));
            i = i + sixth * (di1 + 2.0 * (di2 + di3) + (g4 - o4));
            ar = ar + sixth * (da1 + 2.0 * (da2 + da3) + (pr * o4 - u4));
            af = af + sixth * (db1 + 2.0 * (db2 + db3) + (pf * o4 - w4));
            r = r + sixth * (u1 + 2.0 * (u2 + u3) + u4);
            d = d + sixth * (w1 + 2.0 * (w2 + w3) + w4);
        }
        double *row = rows + 7 * day;
        row[0] = s;
        row[1] = e;
        row[2] = i;
        row[3] = ar;
        row[4] = af;
        row[5] = r;
        row[6] = d;
        if (!(0.0 <= s && s < INFINITY && 0.0 <= e && e < INFINITY
              && 0.0 <= i && i < INFINITY && 0.0 <= ar && ar < INFINITY
              && 0.0 <= af && af < INFINITY && 0.0 <= r && r < INFINITY
              && 0.0 <= d && d < INFINITY))
            return day;
    }
    return 0;
}
