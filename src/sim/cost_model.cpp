#include "sim/cost_model.hpp"

namespace abcl::sim {

CostModel CostModel::ap1000() { return CostModel{}; }

CostModel CostModel::zero() {
  CostModel m;
  m.locality_check = 0;
  m.lookup_call = 0;
  m.vftp_switch = 0;
  m.mq_check = 0;
  m.poll_remote = 0;
  m.stack_return = 0;
  m.frame_alloc = 0;
  m.msg_store = 0;
  m.mq_enqueue = 0;
  m.sched_enqueue = 0;
  m.sched_dispatch = 0;
  m.ctx_save = 0;
  m.ctx_restore = 0;
  m.reply_box_alloc = 0;
  m.reply_check = 0;
  m.select_scan_per_msg = 0;
  m.create_local = 0;
  m.create_remote_local_part = 0;
  m.create_remote_install = 0;
  m.chunk_replenish = 0;
  m.send_setup = 0;
  m.recv_handler = 0;
  m.wire_latency = 1;  // the 1-instr floor every priced latency clamps to
  m.per_hop = 0;
  m.per_word = 0;
  return m;
}

}  // namespace abcl::sim
