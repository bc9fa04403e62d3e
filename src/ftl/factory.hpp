// FTL factory: construct a scheme by name ("page", "block") for the
// ablation bench and config-driven setups.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/ftl/ftl.hpp"

namespace ssdse {

std::unique_ptr<Ftl> make_ftl(const std::string& name, NandArray& nand,
                              const FtlConfig& cfg = {});

/// Names accepted by make_ftl.
std::vector<std::string> ftl_scheme_names();

}  // namespace ssdse
