#include "core/cofence.hpp"

#include "runtime/image.hpp"
#include "runtime/runtime.hpp"

namespace caf2 {

void cofence(Pass downward, Pass upward) {
  (void)upward;  // no statement reordering exists in a library runtime
  rt::Image& image = rt::Image::current();
  obs::Recorder* const rec = image.runtime().observer();
  const double obs_begin =
      rec != nullptr ? image.runtime().engine().now() : 0.0;
  {
    obs::BlameScope blame(rec, image.rank(), obs::Blame::kCofenceWait);
    // Look the scope up on every test: a shipped function run while this
    // image waits pushes its own scope, which may reallocate the stack.
    // Handlers run to completion inside progress(), so the predicate always
    // sees this call's scope on top again.
    image.wait_for(
        [&image, downward] {
          return image.cofence_tracker().current().data_complete_for(
              downward);
        },
        "cofence",
        obs::ResourceId{obs::ResourceKind::kOpCompletion, image.rank(), 0,
                        0});
  }
  if (rec != nullptr) {
    rec->op_span(image.rank(), obs::SpanKind::kCofence, obs_begin,
                 image.runtime().engine().now());
  }
}

std::size_t outstanding_implicit_ops() {
  return rt::Image::current().cofence_tracker().current().outstanding();
}

}  // namespace caf2
