// Dynamic Dataflow (DDF) director.
//
// Fires any actor whose prefire() is satisfied until the workflow
// quiesces — the model of computation the paper assigns to sub-workflows
// whose consumption/production rates are fluid (decision points, variable
// production). Data-driven, no static schedule.

#ifndef CONFLUENCE_DIRECTORS_DDF_DIRECTOR_H_
#define CONFLUENCE_DIRECTORS_DDF_DIRECTOR_H_

#include <memory>

#include "core/director.h"
#include "window/windowed_receiver.h"

namespace cwf {

/// \brief Options for the DDF director.
struct DDFOptions {
  /// Safety valve against livelock in misbehaving workflows: the maximum
  /// firings per Run() call. 0 disables the limit.
  uint64_t max_firings_per_run = 0;
};

class DDFDirector : public Director {
 public:
  explicit DDFDirector(DDFOptions options = {});

  const char* kind() const override { return "DDF"; }

  std::unique_ptr<Receiver> CreateReceiver(InputPort* port) override;

  /// \brief Fire ready actors until quiescent. Standing alone on a virtual
  /// clock, advances time to the next source arrival / window timeout up to
  /// `until`; as an inner director (invoked with until == now) it runs a
  /// single quiescence pass.
  Status Run(Timestamp until) override;

 protected:
  /// \brief One pass over all actors; fires each ready one once. Returns
  /// the number of firings.
  Result<size_t> FireReadyOnce();

  DDFOptions options_;
};

}  // namespace cwf

#endif  // CONFLUENCE_DIRECTORS_DDF_DIRECTOR_H_
