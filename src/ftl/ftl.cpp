#include "src/ftl/factory.hpp"

#include <stdexcept>

#include "src/ftl/block_ftl.hpp"
#include "src/ftl/page_ftl.hpp"

namespace ssdse {

std::unique_ptr<Ftl> make_ftl(const std::string& name, NandArray& nand,
                              const FtlConfig& cfg) {
  if (name == "page") return std::make_unique<PageFtl>(nand, cfg);
  if (name == "block") return std::make_unique<BlockFtl>(nand, cfg);
  throw std::invalid_argument("unknown FTL scheme: " + name);
}

std::vector<std::string> ftl_scheme_names() { return {"page", "block"}; }

}  // namespace ssdse
