#include "revec/apps/detect.hpp"

#include <utility>

#include "revec/dsl/ops.hpp"
#include "revec/dsl/program.hpp"
#include "revec/support/rng.hpp"

namespace revec::apps {


ir::Graph build_detect(unsigned seed) {
    dsl::Program p("mimo_detect");
    XorShift rng(seed == 0 ? 0xdecafbadu : seed);

    // Channel matrix H (rows) and received vector y.
    std::array<dsl::Vector::Elems, 4> h_rows;
    for (auto& row : h_rows) {
        for (auto& e : row) e = ir::Complex(rng.unit(), rng.unit());
    }
    const dsl::Matrix h = p.in_matrix(h_rows, "H");
    dsl::Vector::Elems yv;
    for (auto& e : yv) e = ir::Complex(rng.unit(), rng.unit());
    const dsl::Vector y = p.in_vector(yv, "y");

    // z = H^H y and per-stream energies. The hermitian feeds both the
    // matrix-vector product and the energy computation, so the merging pass
    // cannot fuse it away (two consumers) — a realistic shared pre-stage.
    const dsl::Matrix hh = dsl::m_hermitian(h);
    const dsl::Vector z = dsl::m_vmul(hh, y);
    const dsl::Vector e = dsl::m_squsum(hh);

    // Per-stream normalization on the scalar divider.
    std::array<dsl::Scalar, 4> est;
    for (int i = 0; i < 4; ++i) {
        est[static_cast<std::size_t>(i)] = dsl::s_div(dsl::index(z, i), dsl::index(e, i));
    }
    const dsl::Vector symbols = dsl::merge(est[0], est[1], est[2], est[3]);
    p.mark_output(symbols);

    // Detection ordering by estimated-symbol energy (sorted detectors).
    const dsl::Vector ranking = dsl::post_sort(symbols);
    p.mark_output(ranking);
    return std::move(p).ir();
}

}  // namespace revec::apps
