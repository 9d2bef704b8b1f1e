// Must NOT compile: Op::name views its label, so the factories take it as
// an ops::Label, whose consteval constructor accepts only a constant
// string. A std::string built at run time would leave the Op viewing freed
// memory once the temporary dies.
#include <string>

#include "ops/op_factory.hpp"

int main() {
  const std::string name = "qkv_proj";
  const tfpe::ops::Op op = tfpe::ops::matmul(name.c_str(), 4, 6, 5);
  return op.name.empty() ? 1 : 0;
}
