#include "util/config.hpp"

namespace sdd::config {

void malformed(std::string_view text, const char* expected) {
  throw std::invalid_argument("'" + std::string{text} + "' is not " + expected);
}

bool parse_bool(std::string_view text) {
  if (text == "1" || text == "true" || text == "on" || text == "yes") return true;
  if (text == "0" || text == "false" || text == "off" || text == "no") return false;
  malformed(text, "a bool");
}

}  // namespace sdd::config
