#include "cli.hpp"

int main(int argc, char** argv) { return tfpe::cli::run(argc, argv); }
