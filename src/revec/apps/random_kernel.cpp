#include "revec/apps/random_kernel.hpp"

#include <utility>
#include <vector>

#include "revec/dsl/ops.hpp"
#include "revec/dsl/program.hpp"
#include "revec/ir/validate.hpp"
#include "revec/support/rng.hpp"

namespace revec::apps {

namespace {

/// Wraps the shared generator with damped magnitudes to keep value growth
/// tame in deep multiply chains.
class Rng : public XorShift {
public:
    explicit Rng(unsigned seed) : XorShift(seed == 0 ? 0x5bd1e995u : seed) {}
    double unit() { return XorShift::unit() * 0.9; }
};

}  // namespace

ir::Graph build_random_kernel(const RandomKernelOptions& options) {
    dsl::Program p("random_" + std::to_string(options.seed));
    Rng rng(options.seed);

    std::vector<dsl::Vector> vectors;
    std::vector<dsl::Scalar> scalars;

    const auto fresh_vector = [&] {
        dsl::Vector::Elems e{};
        for (auto& c : e) c = ir::Complex(rng.unit(), rng.unit());
        vectors.push_back(p.in_vector(e, "vin" + std::to_string(vectors.size())));
    };
    for (int i = 0; i < 4; ++i) fresh_vector();
    scalars.push_back(p.in_scalar(ir::Complex(rng.unit(), rng.unit()), "sin0"));

    const auto rand_vec = [&]() -> const dsl::Vector& {
        return vectors[static_cast<std::size_t>(rng.below(static_cast<int>(vectors.size())))];
    };
    const auto rand_sca = [&]() -> const dsl::Scalar& {
        return scalars[static_cast<std::size_t>(rng.below(static_cast<int>(scalars.size())))];
    };

    int emitted = 0;
    while (emitted < options.num_ops) {
        const int kind = rng.below(14);
        switch (kind) {
            case 0: vectors.push_back(dsl::v_add(rand_vec(), rand_vec())); break;
            case 1: vectors.push_back(dsl::v_sub(rand_vec(), rand_vec())); break;
            case 2: vectors.push_back(dsl::v_mul(rand_vec(), rand_vec())); break;
            case 3: vectors.push_back(dsl::v_cmac(rand_vec(), rand_vec(), rand_vec())); break;
            case 4: vectors.push_back(dsl::v_scale(rand_vec(), rand_sca())); break;
            case 5: vectors.push_back(dsl::v_axpy(rand_vec(), rand_sca(), rand_vec())); break;
            case 6: scalars.push_back(dsl::v_dotP(rand_vec(), rand_vec())); break;
            case 7: scalars.push_back(dsl::v_squsum(rand_vec())); break;
            case 8: scalars.push_back(dsl::s_add(rand_sca(), rand_sca())); break;
            case 9: scalars.push_back(dsl::s_mul(rand_sca(), rand_sca())); break;
            case 10: scalars.push_back(dsl::index(rand_vec(), rng.below(ir::kVecLen))); break;
            case 11:
                if (options.use_fusable) {
                    const int which = rng.below(3);
                    if (which == 0) {
                        vectors.push_back(dsl::pre_conj(rand_vec()));
                    } else if (which == 1) {
                        vectors.push_back(dsl::pre_mask(rand_vec(), 1 + rng.below(15)));
                    } else {
                        vectors.push_back(dsl::post_sort(rand_vec()));
                    }
                } else {
                    vectors.push_back(dsl::v_add(rand_vec(), rand_vec()));
                }
                break;
            case 12:
                if (options.use_matrix) {
                    const dsl::Matrix m =
                        p.in_matrix({rand_vec(), rand_vec(), rand_vec(), rand_vec()});
                    if (rng.below(2) == 0) {
                        vectors.push_back(dsl::m_squsum(m));
                    } else {
                        const dsl::Matrix h = dsl::m_hermitian(m);
                        for (const dsl::Vector& row : h.rows()) vectors.push_back(row);
                    }
                } else {
                    vectors.push_back(dsl::v_sub(rand_vec(), rand_vec()));
                }
                break;
            default:
                vectors.push_back(
                    dsl::merge(rand_sca(), rand_sca(), rand_sca(), rand_sca()));
                break;
        }
        ++emitted;
        // Occasionally add a fresh input to keep parallelism available.
        if (rng.below(6) == 0) fresh_vector();
    }

    // Mark a handful of the youngest values as outputs.
    for (int i = 0; i < 3; ++i) {
        p.mark_output(vectors[vectors.size() - 1 - static_cast<std::size_t>(i) %
                                                       vectors.size()]);
    }
    p.mark_output(scalars.back());

    ir::validate_graph(p.ir());
    return std::move(p).ir();
}

}  // namespace revec::apps
