#include "revec/apps/arf.hpp"

#include <string>
#include <utility>
#include <vector>

#include "revec/dsl/ops.hpp"
#include "revec/dsl/program.hpp"
#include "revec/support/rng.hpp"

namespace revec::apps {

namespace {

dsl::Vector::Elems random_elems(XorShift& rng) {
    dsl::Vector::Elems e{};
    for (auto& c : e) c = ir::Complex(rng.unit(), rng.unit());
    return e;
}

}  // namespace

ir::Graph build_arf(unsigned seed) {
    dsl::Program p("arf");
    XorShift rng(seed == 0 ? 0x2545f491u : seed);
    const auto input = [&](const std::string& label) {
        return p.in_vector(random_elems(rng), label);
    };

    // Level 1: eight sample*coefficient products.
    std::vector<dsl::Vector> l1;
    for (int i = 0; i < 8; ++i) {
        l1.push_back(dsl::v_mul(input("x" + std::to_string(i)), input("c1_" + std::to_string(i))));
    }
    // Level 2: pairwise accumulation.
    std::vector<dsl::Vector> l2;
    for (int i = 0; i < 4; ++i) {
        l2.push_back(dsl::v_add(l1[static_cast<std::size_t>(2 * i)],
                                l1[static_cast<std::size_t>(2 * i + 1)]));
    }
    // Level 3: second coefficient stage.
    std::vector<dsl::Vector> l3;
    for (int i = 0; i < 4; ++i) {
        l3.push_back(dsl::v_mul(l2[static_cast<std::size_t>(i)], input("c3_" + std::to_string(i))));
    }
    // Level 4: bias accumulation.
    std::vector<dsl::Vector> l4;
    for (int i = 0; i < 4; ++i) {
        l4.push_back(dsl::v_add(l3[static_cast<std::size_t>(i)], input("b4_" + std::to_string(i))));
    }
    // Level 5: cross products of the two halves.
    std::vector<dsl::Vector> l5;
    l5.push_back(dsl::v_mul(l4[0], l4[2]));
    l5.push_back(dsl::v_mul(l4[1], l4[3]));
    // Level 6: bias accumulation.
    std::vector<dsl::Vector> l6;
    l6.push_back(dsl::v_add(l5[0], input("b6_0")));
    l6.push_back(dsl::v_add(l5[1], input("b6_1")));
    // Level 7: feedback coefficient products.
    std::vector<dsl::Vector> l7;
    l7.push_back(dsl::v_mul(l6[0], input("c7_0")));
    l7.push_back(dsl::v_mul(l6[1], input("c7_1")));
    // Level 8: output accumulation.
    const dsl::Vector y0 = dsl::v_add(l7[0], input("b8_0"));
    const dsl::Vector y1 = dsl::v_add(l7[1], input("b8_1"));
    p.mark_output(y0);
    p.mark_output(y1);
    return std::move(p).ir();
}

}  // namespace revec::apps
