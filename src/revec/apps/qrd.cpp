#include "revec/apps/qrd.hpp"

#include <utility>

#include "revec/dsl/ops.hpp"
#include "revec/dsl/program.hpp"
#include "revec/support/rng.hpp"

namespace revec::apps {

namespace {

ir::Complex next_complex(XorShift& rng) {
    const double re = rng.unit();
    const double im = rng.unit();
    return {re, im};
}

}  // namespace

ir::Graph build_qrd(const QrdOptions& options) {
    dsl::Program p("qrd");
    XorShift rng(options.seed);

    // Columns of the extended matrix A = [H; sigma*I], split top/bottom.
    std::array<dsl::Vector, 4> top;  // H columns
    std::array<dsl::Vector, 4> bot;  // sigma * e_j
    for (int j = 0; j < 4; ++j) {
        dsl::Vector::Elems h{};
        for (int i = 0; i < ir::kVecLen; ++i) {
            h[static_cast<std::size_t>(i)] = next_complex(rng);
        }
        top[static_cast<std::size_t>(j)] = p.in_vector(h, "h" + std::to_string(j));
        dsl::Vector::Elems e{};
        e[static_cast<std::size_t>(j)] = ir::Complex(options.sigma, 0);
        bot[static_cast<std::size_t>(j)] = p.in_vector(e, "sig" + std::to_string(j));
    }

    // Modified Gram-Schmidt over the extended columns.
    for (int k = 0; k < 4; ++k) {
        const auto ku = static_cast<std::size_t>(k);
        // ||a_k||^2 over all 8 elements.
        const dsl::Scalar nt = dsl::v_squsum(top[ku]);
        const dsl::Scalar nb = dsl::v_squsum(bot[ku]);
        const dsl::Scalar norm2 = dsl::s_add(nt, nb);
        // R[k][k] = ||a_k|| via the accelerator's square root.
        const dsl::Scalar rkk = dsl::s_sqrt(norm2);
        p.mark_output(rkk);
        // q_k = a_k / ||a_k|| using the reciprocal square root unit.
        const dsl::Scalar inv = dsl::s_rsqrt(norm2);
        const dsl::Vector qt = dsl::v_scale(top[ku], inv);
        const dsl::Vector qb = dsl::v_scale(bot[ku], inv);
        p.mark_output(qt);
        p.mark_output(qb);

        for (int j = k + 1; j < 4; ++j) {
            const auto ju = static_cast<std::size_t>(j);
            // R[k][j] = <a_j, q_k> over 8 elements.
            const dsl::Scalar dt = dsl::v_dotP(top[ju], qt);
            const dsl::Scalar db = dsl::v_dotP(bot[ju], qb);
            const dsl::Scalar rkj = dsl::s_add(dt, db);
            p.mark_output(rkj);
            // a_j <- a_j - R[k][j] * q_k (both halves).
            top[ju] = dsl::v_axpy(top[ju], rkj, qt);
            bot[ju] = dsl::v_axpy(bot[ju], rkj, qb);
        }
    }
    return std::move(p).ir();
}

}  // namespace revec::apps
