#include "wormnet/routing/scripted.hpp"

namespace wormnet::routing {
namespace {

/// The row for (input, current, dest): the exact-input entry when `by_input`
/// and one exists, else the wildcard entry, else nullptr.
const ChannelSet* find_row(const std::map<TableRouting::Key, ChannelSet>& rows,
                           bool by_input, ChannelId input, NodeId current,
                           NodeId dest) {
  if (by_input) {
    auto exact = rows.find(TableRouting::Key{input, current, dest});
    if (exact != rows.end()) return &exact->second;
  }
  auto wildcard = rows.find(TableRouting::Key{kInvalidChannel, current, dest});
  return wildcard != rows.end() ? &wildcard->second : nullptr;
}

}  // namespace

TableRouting::TableRouting(const Topology& topo, std::string label,
                           std::map<Key, ChannelSet> table, RelationForm form,
                           WaitMode wait)
    : RoutingFunction(topo), label_(std::move(label)), table_(std::move(table)),
      form_(form), wait_(wait) {}

void TableRouting::route_into(ChannelId input, NodeId current, NodeId dest,
                              ChannelSet& out) const {
  const bool by_input = form_ == RelationForm::kChannelNodeDest;
  if (const ChannelSet* row = find_row(table_, by_input, input, current, dest)) {
    out.insert(out.end(), row->begin(), row->end());
  }
}

void TableRouting::set_waiting(std::map<Key, ChannelSet> waiting_table) {
  waiting_ = std::move(waiting_table);
}

bool TableRouting::waiting_into(ChannelId input, NodeId current, NodeId dest,
                                ChannelSet& out) const {
  const bool by_input = form_ == RelationForm::kChannelNodeDest;
  const ChannelSet* row = find_row(waiting_, by_input, input, current, dest);
  if (row == nullptr) return false;
  out.insert(out.end(), row->begin(), row->end());
  return true;
}

}  // namespace wormnet::routing
