#include "wormnet/routing/selection.hpp"

namespace wormnet::routing {

const char* to_string(SelectionPolicy policy) {
  switch (policy) {
    case SelectionPolicy::kInOrder:
      return "in-order";
    case SelectionPolicy::kRandom:
      return "random";
  }
  return "?";
}

}  // namespace wormnet::routing
