// Fixture: own header first, then system headers.
#include "graph/good_include_order.h"

#include <vector>

int Degree(const std::vector<int>& adj) { return static_cast<int>(adj.size()); }
