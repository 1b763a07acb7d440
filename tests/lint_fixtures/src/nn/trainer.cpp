// no-training-forward: the training loop is an exempt home.
namespace anole::nn {

struct Net {
  int forward(int x) { return x; }
};

int train_step(Net& net) { return net.forward(1); }  // ok: exempt file

}  // namespace anole::nn
