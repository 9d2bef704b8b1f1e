#pragma once
// The tfpe front end as a library, so tests can walk its flag tables and
// run it in-process.

#include <string>
#include <utility>
#include <vector>

#include "io/schema.hpp"

namespace tfpe::cli {

/// Each subcommand's name and every flag row it reads: its own flags, then
/// the row flags of the .tfpe records it takes, then --help.
std::vector<std::pair<std::string, std::vector<io::Row>>> flag_tables();

/// `tfpe ARGS...` (argv[0] is the program name); the process exit code.
int run(int argc, const char* const* argv);

}  // namespace tfpe::cli
