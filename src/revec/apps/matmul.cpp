#include "revec/apps/matmul.hpp"

#include <utility>

#include "revec/dsl/ops.hpp"
#include "revec/dsl/program.hpp"

namespace revec::apps {

ir::Graph build_matmul() {
    return build_matmul({{{1, 2, 3, 4}, {2, 3, 4, 5}, {3, 4, 5, 6}, {4, 5, 6, 7}}});
}

ir::Graph build_matmul(const std::array<std::array<ir::Complex, ir::kVecLen>, 4>& a) {
    dsl::Program p("matmul");
    const dsl::Matrix m = p.in_matrix(a, "A");

    for (int i = 0; i < 4; ++i) {
        std::array<dsl::Scalar, 4> scalars;
        for (int j = 0; j < 4; ++j) {
            // Listing 1, line 16: scalars(j) = A(i) v_dotP A(j).
            scalars[static_cast<std::size_t>(j)] = dsl::v_dotP(m(i), m(j));
        }
        const dsl::Vector row = dsl::merge(scalars[0], scalars[1], scalars[2], scalars[3]);
        p.mark_output(row);
    }
    return std::move(p).ir();
}

}  // namespace revec::apps
