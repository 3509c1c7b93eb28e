from .cli import run

if __name__ == "__main__":  # an import must not end the importing process
    run()
