// Fixture: own header not first.
#include <vector>

#include "graph/bad_include_order.h"

int Degree(const std::vector<int>& adj) { return static_cast<int>(adj.size()); }
