// The DSL trace context. A Program is what "running the DSL program"
// produces: every operation both computes its value eagerly and appends
// operation/data nodes to the traced IR graph.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "revec/dsl/value.hpp"
#include "revec/ir/graph.hpp"

namespace revec::dsl {

class Program {
public:
    explicit Program(std::string name) : graph_(std::move(name)) {}

    Program(const Program&) = delete;
    Program& operator=(const Program&) = delete;

    // -- program inputs -------------------------------------------------------
    Scalar in_scalar(ir::Complex v, std::string label = {});
    Vector in_vector(Vector::Elems v, std::string label = {});
    /// Convenience matching listing 1's EITVector(1,2,3,4).
    Vector in_vector(double a, double b, double c, double d, std::string label = {});
    Matrix in_matrix(std::array<Vector, 4> rows);
    Matrix in_matrix(std::array<Vector::Elems, 4> rows, std::string label = {});

    // -- program outputs -------------------------------------------------------
    void mark_output(const Scalar& s);
    void mark_output(const Vector& v);
    void mark_output(const Matrix& m);

    /// The traced IR (validated). Call after building the whole program.
    const ir::Graph& ir() const& { return graph_; }
    /// The traced IR, handed over without a copy: `return std::move(p).ir();`
    /// ends a kernel builder. The program is empty afterwards.
    ir::Graph ir() && { return std::move(graph_); }

    // -- trace API used by the operation library (revec/dsl/ops.hpp) ---------
    /// Append an operation node consuming `args` (data node ids, operand
    /// order) and one result data node; returns the result data node id.
    int trace(ir::NodeCat op_cat, const std::string& op, const std::vector<int>& args,
              ir::NodeCat result_cat, int imm = 0, const std::string& label = {});
    /// Append an operation with four vector result nodes (matrix result);
    /// returns the four data node ids.
    std::array<int, 4> trace_matrix_result(const std::string& op, const std::vector<int>& args,
                                           const std::string& label = {});

    /// Validate ownership: all values must belong to this program.
    void check_owns(const Scalar& s) const;
    void check_owns(const Vector& v) const;

private:
    ir::Graph graph_;
};

}  // namespace revec::dsl
