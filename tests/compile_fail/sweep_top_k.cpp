// Must NOT compile: the scan driver keeps only each point's optimum, so its
// options (ScanOptions) have no top_k — rank candidates with find_optimal.
#include "search/sweep.hpp"

int main() {
  tfpe::search::SweepOptions o;
  o.search.top_k = 3;  // error: ScanOptions has no member top_k
}
